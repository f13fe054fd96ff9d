package main

import (
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astrea/internal/leakcheck"
	"astrea/internal/server"
)

// startDaemon serves d=3 from an in-process daemon on a loopback port and
// returns its address.
func startDaemon(t *testing.T) string {
	t.Helper()
	_, addr := startServer(t)
	return addr
}

// startServer is startDaemon returning the daemon itself too.
func startServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(server.Config{Distances: []int{3}, P: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

// runReport runs the load driver with args and returns what it printed to
// stdout.
func runReport(t *testing.T, args []string) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(report)
}

// TestRunModes drives every mode of the one load driver through run(args)
// against live in-process daemons. -verify is on by default, so a nil
// error is the zero-mismatch gate; the default 1 µs deadline makes the
// request modes verify late (deadline-missed) answers too.
func TestRunModes(t *testing.T) {
	leakcheck.Check(t)
	a, b := startDaemon(t), startDaemon(t)
	for name, args := range map[string][]string{
		"request":       {"-addr", a, "-d", "3", "-n", "400"},
		"stream":        {"-addr", a, "-d", "3", "-stream", "-n", "800"},
		"stream-resume": {"-addr", a, "-d", "3", "-stream-resume", "-n", "800", "-stream-kills", "2"},
		"fleet":         {"-servers", a + "," + b, "-d", "3", "-n", "400"},
	} {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRequestReportCoalescingRows checks that a single-daemon request report
// shows both halves of the socket coalescing: the daemon's (response frames
// per client read) and the client's own (request frames per client write).
func TestRequestReportCoalescingRows(t *testing.T) {
	leakcheck.Check(t)
	report := runReport(t, []string{"-addr", startDaemon(t), "-d", "3", "-n", "400"})
	for _, row := range []string{"response frames per socket read", "request frames per client write"} {
		if !strings.Contains(report, row) {
			t.Errorf("request report has no %q row:\n%s", row, report)
		}
	}
}

// TestRequestReportInlineShare checks the -stats row: the daemon's
// answered-inline share of this run alone, read from /stats before and
// after. An Astrea daemon at d=3, p=1e-3 answers every request inline, and
// a run before the measured one must not count.
func TestRequestReportInlineShare(t *testing.T) {
	leakcheck.Check(t)
	srv, addr := startServer(t)
	stats := httptest.NewServer(srv.StatsHandler())
	defer stats.Close()
	args := []string{"-addr", addr, "-d", "3", "-n", "400", "-stats", stats.URL}
	runReport(t, args)
	report := runReport(t, args)
	if want := "100.0% (400 of 400 accepted)"; !strings.Contains(report, "answered inline (daemon)") || !strings.Contains(report, want) {
		t.Errorf("request report has no answered-inline row reading %q:\n%s", want, report)
	}
}

// TestStreamReportFramesPerWrite checks both halves of the stream path's
// socket coalescing in the stream report: the client's rounds frames per
// write, and with -stats the daemon's frames per write over this run.
func TestStreamReportFramesPerWrite(t *testing.T) {
	leakcheck.Check(t)
	srv, addr := startServer(t)
	stats := httptest.NewServer(srv.StatsHandler())
	defer stats.Close()
	report := runReport(t, []string{"-addr", addr, "-d", "3", "-stream", "-n", "2000", "-stats", stats.URL})
	for _, row := range []string{"rounds frames per client write", "frames per daemon write (/stats)"} {
		if !strings.Contains(report, row) {
			t.Errorf("stream report has no %q row:\n%s", row, report)
		}
	}
}

// TestRunRejectsConflictingFlags checks every mutually exclusive flag pair
// and the stream-mode -deadline overflow: each must fail with an error
// naming the conflict, before anything is dialled (no daemon listens on
// the addresses used here).
func TestRunRejectsConflictingFlags(t *testing.T) {
	leakcheck.Check(t)
	const dead = "127.0.0.1:1"
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"servers+stream":        {[]string{"-servers", dead, "-stream"}, "single-daemon path"},
		"servers+stream-resume": {[]string{"-servers", dead, "-stream-resume"}, "single-daemon path"},
		"servers+chaos":         {[]string{"-servers", dead, "-chaos"}, "single-daemon path"},
		"servers+stats":         {[]string{"-servers", dead, "-stats", "http://" + dead + "/stats"}, "single-daemon paths"},
		"chaos+stream-resume":   {[]string{"-addr", dead, "-chaos", "-stream-resume"}, "mutually exclusive"},
		"both fingerprints": {[]string{"-servers", dead, "-expect-fingerprint", "0123456789abcdef",
			"-expect-fingerprint-artifact", "none.astc"}, "mutually exclusive"},
		"rotate without dirs":    {[]string{"-servers", dead, "-rotate", "none.astc"}, "-rotate-dirs"},
		"stream deadline wraps":  {[]string{"-addr", dead, "-stream", "-deadline", "5s"}, "4.294967295s"},
		"resume deadline wraps":  {[]string{"-addr", dead, "-stream-resume", "-deadline", "5s"}, "4.294967295s"},
		"unknown codec":          {[]string{"-addr", dead, "-codec", "zstd"}, "zstd"},
		"malformed fingerprint":  {[]string{"-servers", dead, "-expect-fingerprint", "xyz"}, "xyz"},
		"rotate dirs != servers": {[]string{"-servers", dead, "-rotate", "none.astc", "-rotate-dirs", "a,b"}, "2 rotate dirs for 1 replicas"},
	} {
		t.Run(name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
