package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// A span is one call the benchmark made into a layer. Parent is the index of
// the span that caused it (-1 for the root of an op); spans of one op share
// OpID. Times are nanoseconds since the run's origin.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	OpID    int64  `json:"op_id"`
}

// maxSpans bounds what one shard keeps: a saturated workload makes millions
// of calls per second and the file is for reading, not for totals. Spans past
// the cap are counted as dropped.
const maxSpans = 1 << 15

// recorder keeps spans in memory for one goroutine; a nil recorder is
// tracing turned off and every method is a no-op.
type recorder struct {
	origin  time.Time
	spans   []span
	dropped int64
}

func newRecorder(origin time.Time) *recorder {
	return &recorder{origin: origin, spans: make([]span, 0, maxSpans)}
}

// now is the recorder's clock; with tracing off it costs nothing.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.origin).Nanoseconds()
}

// add records a finished span and returns its index for use as a parent
// (-1 when dropped or off).
func (r *recorder) add(name string, start, end int64, parent int32, op int64) int32 {
	if r == nil {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{Name: name, StartNs: start, EndNs: end, Parent: parent, OpID: op})
	return int32(len(r.spans) - 1)
}

// setEnd closes a span that was added open (a session root, whose end is
// known only after its children).
func (r *recorder) setEnd(idx int32, end int64) {
	if r != nil && idx >= 0 {
		r.spans[idx].EndNs = end
	}
}

// layerTime is one span name's totals: self time is the span's duration
// minus the part of it its children cover.
type layerTime struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

type traceFile struct {
	Workload string               `json:"workload"`
	Spans    []span               `json:"spans"`
	Dropped  int64                `json:"dropped"`
	Layers   map[string]layerTime `json:"layers"`
}

// mergeShards joins per-goroutine recorders into one span list, rebasing
// parent indices.
func mergeShards(shards ...*recorder) (spans []span, dropped int64) {
	for _, r := range shards {
		if r == nil {
			continue
		}
		base := int32(len(spans))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
		dropped += r.dropped
	}
	return spans, dropped
}

// layerTimes computes per-name totals and self times, and fails if a child
// starts before or ends after its parent.
func layerTimes(spans []span) (map[string]layerTime, error) {
	kids := make(map[int32][][2]int64)
	for i, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return nil, fmt.Errorf("span %d (%s %d..%d) exceeds its parent %d (%s %d..%d)",
				i, s.Name, s.StartNs, s.EndNs, s.Parent, p.Name, p.StartNs, p.EndNs)
		}
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		l := out[s.Name]
		l.Count++
		l.TotalNs += s.EndNs - s.StartNs
		l.SelfNs += s.EndNs - s.StartNs - covered(kids[int32(i)])
		out[s.Name] = l
	}
	return out, nil
}

// covered is the length of the union of intervals (children of a session
// span run on two goroutines and overlap).
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeTrace writes the span file for one workload and returns the layer totals.
func writeTrace(dir, workload string, spans []span, dropped int64) (map[string]layerTime, error) {
	layers, err := layerTimes(spans)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b, err := json.Marshal(traceFile{Workload: workload, Spans: spans, Dropped: dropped, Layers: layers})
	if err != nil {
		return nil, err
	}
	return layers, os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

// meanNs is a layer's mean span duration.
func (l layerTime) meanNs() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.TotalNs) / float64(l.Count)
}
