package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing flags accepted")
	}
	if err := run([]string{"-data", "x"}); err == nil {
		t.Fatal("missing token accepted")
	}
	if err := run([]string{"-data", t.TempDir(), "-token", "x"}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if err := run([]string{"-data", "x", "-token", "x", "-drain", "0s"}); err == nil {
		t.Fatal("zero drain deadline accepted")
	}
	if err := run([]string{"-data", "x", "-token", "x"}); err == nil {
		t.Fatal("nonexistent dataset accepted")
	}
	// A negative value is an error naming its flag, raised before the
	// dataset (missing here) is opened; zero keeps meaning "off".
	missing := filepath.Join(t.TempDir(), "missing")
	for _, bad := range [][]string{
		{"-max-inflight", "-1"}, {"-rate", "-1"}, {"-burst", "-1"},
		{"-request-timeout", "-1s"}, {"-reload-poll", "-1s"}, {"-reload-timeout", "-1s"},
	} {
		err := run(append([]string{"-data", missing, "-token", "x"}, bad...))
		if err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Fatalf("%v: %v, want an error naming the flag", bad, err)
		}
	}
	zeros := []string{"-data", missing, "-token", "x", "-max-inflight", "0", "-rate", "0", "-burst", "0",
		"-request-timeout", "0", "-reload-poll", "0", "-reload-timeout", "0"}
	if err := run(zeros); err == nil || strings.Contains(err.Error(), "negative") {
		t.Fatalf("all-zero flags: %v, want the missing dataset's error", err)
	}
}
