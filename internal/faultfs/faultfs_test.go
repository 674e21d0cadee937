package faultfs

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "victim.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBitFlip(t *testing.T) {
	path := writeTemp(t, []byte{0x00, 0xFF, 0x10})
	if err := BitFlip(path, 1, 0x81); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, []byte{0x00, 0x7E, 0x10}) {
		t.Fatalf("after flip: %x", got)
	}
	// Negative offsets count from the end.
	if err := BitFlip(path, -1, 0x01); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if got[2] != 0x11 {
		t.Fatalf("after tail flip: %x", got)
	}
	if err := BitFlip(path, 99, 1); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
	if err := BitFlip(path, 0, 0); err == nil {
		t.Fatal("zero mask accepted")
	}
}

func TestTruncateTail(t *testing.T) {
	path := writeTemp(t, []byte("abcdef"))
	if err := TruncateTail(path, 2); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "abcd" {
		t.Fatalf("after truncate: %q", got)
	}
	if err := TruncateTail(path, 100); err == nil {
		t.Fatal("oversized truncation accepted")
	}
}

func TestRecompressPrefixAndUncompressedLen(t *testing.T) {
	plain := []byte("0123456789abcdefghij")
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(plain) //nolint:errcheck
	zw.Close()      //nolint:errcheck
	path := writeTemp(t, buf.Bytes())

	if n, err := UncompressedLen(path); err != nil || n != len(plain) {
		t.Fatalf("UncompressedLen = %d, %v", n, err)
	}
	if err := RecompressPrefix(path, 7); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("cut stream is not clean gzip: %v", err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(gz); err != nil {
		t.Fatalf("cut stream does not read cleanly: %v", err)
	}
	if !bytes.Equal(out.Bytes(), plain[:7]) {
		t.Fatalf("prefix = %q", out.Bytes())
	}
	if err := RecompressPrefix(path, 1000); err == nil {
		t.Fatal("oversized prefix accepted")
	}
}

func TestWriteFileSlowly(t *testing.T) {
	data := bytes.Repeat([]byte("xyz"), 100)
	path := filepath.Join(t.TempDir(), "slow.bin")
	if err := WriteFileSlowly(path, data, 7, 0); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, data) {
		t.Fatalf("slow write mangled data: %d bytes", len(got))
	}
	if err := WriteFileSlowly(path, data, 0, 0); err == nil {
		t.Fatal("zero chunk accepted")
	}
}

// The injector counts every operation, fails exactly the K-th of its kind
// (a write torn half way), and with Crash keeps failing everything until
// Reboot — the process is dead until it restarts.
func TestInjector(t *testing.T) {
	path := writeTemp(t, nil)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	in := &Injector{Op: "write", K: 2, Crash: true}
	if n, err := in.Write(f, []byte("abcd")); n != 4 || err != nil {
		t.Fatalf("first write: %d, %v", n, err)
	}
	if in.Tripped() {
		t.Fatal("tripped early")
	}
	if n, err := in.Write(f, []byte("efgh")); n != 2 || err != ErrInjected {
		t.Fatalf("second write: %d, %v; want a torn half", n, err)
	}
	if !in.Tripped() {
		t.Fatal("second write did not trip")
	}
	if in.Sync(f) != ErrInjected || in.Rename(path, path+".x") != ErrInjected {
		t.Fatal("a crashed process kept working")
	}
	if _, err := in.Write(f, []byte("zz")); err != ErrInjected {
		t.Fatal("a crashed process kept writing")
	}
	in.Reboot()
	if err := in.Sync(f); err != nil {
		t.Fatal(err)
	}
	if err := in.Rename(path, path+".x"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path + ".x")
	if err != nil || string(got) != "abcdef" {
		t.Fatalf("file holds %q, %v", got, err)
	}
	if in.Count("write") != 3 || in.Count("sync") != 2 || in.Count("rename") != 2 {
		t.Fatalf("counts: %d writes, %d syncs, %d renames", in.Count("write"), in.Count("sync"), in.Count("rename"))
	}

	// Without Crash the failure is a one-off, and K == 0 only counts.
	once := &Injector{Op: "sync", K: 1}
	if once.Sync(f) != ErrInjected || once.Sync(f) != nil {
		t.Fatal("a non-crash failure must fire exactly once")
	}
	if idle := (&Injector{}); idle.Sync(f) != nil || idle.Tripped() || idle.Count("sync") != 1 {
		t.Fatal("an unarmed injector interfered")
	}
}
