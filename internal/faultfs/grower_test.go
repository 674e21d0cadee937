package faultfs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestGrowerSingleSteps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.bin")
	data := []byte("0123456789abcdef")
	g, err := NewGrower(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); len(got) != 0 {
		t.Fatalf("fresh grower published %d bytes", len(got))
	}
	if g.Done() || g.Remaining() != len(data) {
		t.Fatalf("fresh grower state: done=%v remaining=%d", g.Done(), g.Remaining())
	}
	n, err := g.Grow(5)
	if err != nil || n != 5 {
		t.Fatalf("Grow(5) = %d, %v", n, err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data[:5]) {
		t.Fatalf("published %q", got)
	}
	// Over-asking clamps to what is left.
	n, err = g.Grow(1000)
	if err != nil || n != len(data)-5 {
		t.Fatalf("Grow(1000) = %d, %v", n, err)
	}
	if !g.Done() || g.off != len(data) {
		t.Fatalf("grower not done: off=%d", g.off)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Fatalf("final content %q", got)
	}
	// Growing a finished file is a no-op, not an error.
	if n, err := g.Grow(1); err != nil || n != 0 {
		t.Fatalf("Grow past end = %d, %v", n, err)
	}
	if _, err := g.Grow(0); err == nil {
		t.Fatal("Grow(0) accepted")
	}
}
