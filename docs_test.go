package iotscope_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The docs cite benchmarks by name (DESIGN.md §4 indexes one per figure and
// table; docs/PERFORMANCE.md maps the hot-path ones to ledger metrics). A
// name in backticks must be a benchmark function somewhere in the repo, so
// deleting or renaming one cannot leave the docs pointing at nothing.
func TestDocsNameExistingBenchmarks(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile("`(Benchmark\\w+)`")
	names := 0
	for _, doc := range append(docs, "DESIGN.md", "EXPERIMENTS.md") {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cited.FindAllSubmatch(text, -1) {
			names++
			if !defined[string(m[1])] {
				t.Errorf("%s names `%s`, which no _test.go file defines", doc, m[1])
			}
		}
	}
	if names == 0 {
		t.Fatal("no benchmark name found in the docs: the pattern has rotted")
	}
}
