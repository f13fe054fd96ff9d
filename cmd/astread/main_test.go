package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"astrea/internal/artifact"
	"astrea/internal/server"
	"astrea/internal/surface"
)

func TestBuildConfigDefaults(t *testing.T) {
	opts, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg, listen, httpAddr, drain := opts.cfg, opts.listen, opts.httpAddr, opts.drain
	if listen != ":7717" || httpAddr != ":7718" {
		t.Fatalf("default addrs: %q, %q", listen, httpAddr)
	}
	if got, want := len(cfg.Distances), 3; got != want {
		t.Fatalf("default distances: %v", cfg.Distances)
	}
	if cfg.Decoder != "astrea" || cfg.QueueDepth != 1024 || cfg.BatchSize != 16 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.DefaultDeadlineNs != 1000 {
		t.Fatalf("default deadline: %d ns", cfg.DefaultDeadlineNs)
	}
	if cfg.MaxConns != 4096 {
		t.Fatalf("robustness defaults: %+v", cfg)
	}
	if cfg.HandshakeTimeout != 10*time.Second || cfg.IdleTimeout != 5*time.Minute || cfg.WriteTimeout != 30*time.Second {
		t.Fatalf("timeout defaults: %+v", cfg)
	}
	if drain != 10*time.Second {
		t.Fatalf("default drain: %v", drain)
	}
}

func TestBuildConfigParsesFlags(t *testing.T) {
	opts, err := buildConfig([]string{
		"-listen", "127.0.0.1:0", "-distances", "5, 9", "-decoder", "uf",
		"-queue", "8", "-deadline", "2us",
		"-max-conns", "2", "-idle-timeout", "30s",
		"-drain-timeout", "3s",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, listen, drain := opts.cfg, opts.listen, opts.drain
	if listen != "127.0.0.1:0" {
		t.Fatalf("listen: %q", listen)
	}
	if len(cfg.Distances) != 2 || cfg.Distances[0] != 5 || cfg.Distances[1] != 9 {
		t.Fatalf("distances: %v", cfg.Distances)
	}
	if cfg.Decoder != "uf" || cfg.QueueDepth != 8 || cfg.DefaultDeadlineNs != 2000 {
		t.Fatalf("parsed: %+v", cfg)
	}
	if cfg.MaxConns != 2 || cfg.IdleTimeout != 30*time.Second {
		t.Fatalf("robustness flags: %+v", cfg)
	}
	if drain != 3*time.Second {
		t.Fatalf("drain: %v", drain)
	}
}

// TestBuildConfigDisabledSentinels: flag value 0 means "disabled", which
// the server Config spells as negative (its zero means "use the default").
func TestBuildConfigDisabledSentinels(t *testing.T) {
	opts, err := buildConfig([]string{
		"-max-conns", "0", "-handshake-timeout", "0", "-idle-timeout", "0",
		"-write-timeout", "0", "-drain-timeout", "0",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, drain := opts.cfg, opts.drain
	if cfg.MaxConns >= 0 {
		t.Fatalf("0 flags not mapped to disabled: %+v", cfg)
	}
	if cfg.HandshakeTimeout >= 0 || cfg.IdleTimeout >= 0 || cfg.WriteTimeout >= 0 {
		t.Fatalf("0 timeouts not mapped to disabled: %+v", cfg)
	}
	if drain != 0 {
		t.Fatalf("drain: %v", drain)
	}
}

func TestBuildConfigRejectsBadDistance(t *testing.T) {
	if _, err := buildConfig([]string{"-distances", "3,x"}); err == nil {
		t.Fatal("bad distance accepted")
	}
}

func TestBuildConfigArtifactFlags(t *testing.T) {
	opts, err := buildConfig([]string{"-artifact", "a.astc, b.astc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.artifactPaths) != 2 || opts.artifactPaths[0] != "a.astc" || opts.artifactPaths[1] != "b.astc" {
		t.Fatalf("artifact paths: %v", opts.artifactPaths)
	}
	if opts.distancesSet {
		t.Fatal("distancesSet true without an explicit -distances")
	}
	opts, err = buildConfig([]string{"-artifact", "a.astc", "-distances", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.distancesSet {
		t.Fatal("explicit -distances not recorded")
	}
}

func TestBuildConfigArtifactDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.astc", "a.astc", "ignored.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts, err := buildConfig([]string{"-artifact-dir", dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "a.astc"), filepath.Join(dir, "b.astc")}
	if len(opts.artifactPaths) != 2 || opts.artifactPaths[0] != want[0] || opts.artifactPaths[1] != want[1] {
		t.Fatalf("artifact-dir paths: %v, want %v", opts.artifactPaths, want)
	}
	if _, err := buildConfig([]string{"-artifact-dir", t.TempDir()}); err == nil {
		t.Fatal("empty artifact-dir accepted")
	}
}

// compileTestBundle writes a d=3 r=3 p=1e-3 bundle and returns its path.
func compileTestBundle(t *testing.T) string {
	t.Helper()
	a, err := artifact.Compile(3, 3, 1e-3, surface.BasisZ)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	path := filepath.Join(t.TempDir(), artifact.FileName(a.Meta))
	if err := a.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestLoadArtifacts(t *testing.T) {
	path := compileTestBundle(t)

	opts, err := buildConfig([]string{"-artifact", path})
	if err != nil {
		t.Fatal(err)
	}
	arts, err := loadArtifacts(&opts)
	if err != nil {
		t.Fatalf("loadArtifacts: %v", err)
	}
	if arts[3] == nil {
		t.Fatalf("bundle for d=3 not loaded: %v", arts)
	}
	// Without explicit -distances the artifacts define the served set.
	if len(opts.cfg.Distances) != 1 || opts.cfg.Distances[0] != 3 {
		t.Fatalf("served set: %v, want [3]", opts.cfg.Distances)
	}

	// Same bundle twice: duplicate distance is refused.
	opts, err = buildConfig([]string{"-artifact", path + "," + path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadArtifacts(&opts); err == nil {
		t.Fatal("duplicate-distance artifacts accepted")
	}

	// p disagreeing with the daemon configuration is refused.
	opts, err = buildConfig([]string{"-artifact", path, "-p", "2e-3"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadArtifacts(&opts); err == nil {
		t.Fatal("artifact with mismatched p accepted")
	}
}

func TestServerFromArtifacts(t *testing.T) {
	path := compileTestBundle(t)
	opts, err := buildConfig([]string{"-artifact", path, "-workers", "1"})
	if err != nil {
		t.Fatal(err)
	}
	arts, err := loadArtifacts(&opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.cfg.Artifacts = arts
	srv, err := server.New(opts.cfg)
	if err != nil {
		t.Fatalf("server.New from artifacts: %v", err)
	}
	srv.Close()
}

// compileGeneration writes a d=3 r=3 bundle at the given rate and
// generation into dir and returns the artifact.
func compileGeneration(t *testing.T, dir string, p float64, gen uint64) *artifact.Artifact {
	t.Helper()
	a, err := artifact.Compile(3, 3, p, surface.BasisZ)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	a.Meta.Generation = gen
	if err := a.WriteFile(filepath.Join(dir, artifact.FileName(a.Meta))); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return a
}

func TestBuildConfigWatchNeedsDir(t *testing.T) {
	if _, err := buildConfig([]string{"-artifact-watch", "5s"}); err == nil {
		t.Fatal("-artifact-watch without -artifact-dir accepted")
	}
}

// TestLoadArtifactsPicksNewestGeneration: a watch directory accumulates
// recalibrations; startup must serve the highest generation per distance
// and ignore a superseded bundle entirely — including its stale p.
func TestLoadArtifactsPicksNewestGeneration(t *testing.T) {
	dir := t.TempDir()
	compileGeneration(t, dir, 1e-3, 0)
	a1 := compileGeneration(t, dir, 2e-3, 1)

	opts, err := buildConfig([]string{"-artifact-dir", dir, "-p", "2e-3"})
	if err != nil {
		t.Fatal(err)
	}
	arts, err := loadArtifacts(&opts)
	if err != nil {
		t.Fatalf("loadArtifacts over mixed generations: %v", err)
	}
	if arts[3] == nil || arts[3].Meta.Generation != 1 || arts[3].Fingerprint != a1.Fingerprint {
		t.Fatalf("loaded %v, want the generation-1 bundle", arts[3])
	}

	// Two bundles at the SAME generation stay an operator error.
	src, err := os.ReadFile(filepath.Join(dir, artifact.FileName(a1.Meta)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "copy.astc"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	opts, err = buildConfig([]string{"-artifact-dir", dir, "-p", "2e-3"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadArtifacts(&opts); err == nil {
		t.Fatal("two bundles at one generation accepted")
	}
}

// TestRescanRotates drives the watch-directory path end to end in
// process: a newer generation appearing in the directory hot-swaps the
// served pool, while re-scans with nothing newer — or with unreadable
// drops — change nothing.
func TestRescanRotates(t *testing.T) {
	dir := t.TempDir()
	a0 := compileGeneration(t, dir, 1e-3, 0)
	srv, err := server.New(server.Config{
		Distances: []int{3},
		Artifacts: map[int]*artifact.Artifact{3: a0},
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Nothing newer: a re-scan is a no-op.
	rescanArtifacts(srv, dir)
	if n := srv.Snapshot().Rotations; n != 0 {
		t.Fatalf("re-scan with nothing newer rotated %d times", n)
	}

	// A corrupt drop (a bundle mid-copy) is skipped without harm.
	if err := os.WriteFile(filepath.Join(dir, "torn.astc"), []byte("astc?"), 0o644); err != nil {
		t.Fatal(err)
	}
	rescanArtifacts(srv, dir)
	if n := srv.Snapshot().Rotations; n != 0 {
		t.Fatalf("re-scan over a corrupt bundle rotated %d times", n)
	}

	// A strictly newer generation rotates the pool.
	a1 := compileGeneration(t, dir, 2e-3, 1)
	rescanArtifacts(srv, dir)
	snap := srv.Snapshot()
	if snap.Rotations != 1 {
		t.Fatalf("re-scan with a newer generation rotated %d times, want 1", snap.Rotations)
	}
	if fp := srv.Fingerprints()[3]; fp != a1.Fingerprint {
		t.Fatalf("serving fingerprint %s after rotation, want %s", fp, a1.Fingerprint)
	}

	// Re-running the same scan is idempotent.
	rescanArtifacts(srv, dir)
	if n := srv.Snapshot().Rotations; n != 1 {
		t.Fatalf("idempotent re-scan rotated again (%d total)", n)
	}
}
