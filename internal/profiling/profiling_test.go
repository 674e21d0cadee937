package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have something to record.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	buf := make([][]byte, 64)
	for i := range buf {
		buf[i] = make([]byte, 1024)
	}
	_ = buf
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestStartNoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartBadPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "c.pprof"), ""); err == nil {
		t.Fatal("unwritable cpu profile path accepted")
	}
}

var allocSink []byte

func TestAllocBytes(t *testing.T) {
	if got := AllocBytes(5, func() { allocSink = make([]byte, 1<<20) }); got < 1<<20 || got > 1<<20+4096 {
		t.Fatalf("a 1 MiB allocation a call measured as %d bytes", got)
	}
	if got := AllocBytes(5, func() {}); got > 64 {
		t.Fatalf("no allocation measured as %d bytes", got)
	}
}
