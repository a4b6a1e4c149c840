package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestFastFiguresGolden pins the bytes of the figures that take well
// under a second together — the fluid surfaces and phase plots (2, 3),
// the fairness staircase (5), the rotor fabric (8) and the theorems — at
// the default seed 1 against testdata/fast.golden. Regenerate with
// POWERTCP_UPDATE_GOLDEN=1 when a figure's numbers are meant to move.
func TestFastFiguresGolden(t *testing.T) {
	got := capture(t, "2", "3", "5", "8", "theory")
	path := filepath.Join("testdata", "fast.golden")
	if os.Getenv("POWERTCP_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with POWERTCP_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("figure output drifted at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("figure output has %d lines, golden has %d", len(gl), len(wl))
	}
}

// capture runs the named -fig cases in order and returns what they
// print to stdout.
func capture(t *testing.T, names ...string) []byte {
	t.Helper()
	var runs []func()
	for _, name := range names {
		i := slices.IndexFunc(figures, func(f figure) bool { return f.name == name })
		if i < 0 {
			t.Fatalf("no -fig case %q", name)
		}
		runs = append(runs, figures[i].run)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	for _, run := range runs {
		run()
	}
	os.Stdout = stdout
	w.Close()
	return <-out
}
