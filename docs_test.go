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

// The docs cite command lines in code spans (`iotinfer -save FILE`, `go run
// ./cmd/iotwatch -once`). Every -flag such a span gives a command must be one
// that command's flag set defines, so deleting a flag cannot leave the docs
// telling a reader to pass it.
func TestDocsNameExistingFlags(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]map[string]bool{}
	decl := regexp.MustCompile(`\bfs\.(?:Var\([^,]+,|\w+\()\s*"([\w-]+)"`)
	for _, main := range mains {
		src, err := os.ReadFile(main)
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			flags[string(m[1])] = true
		}
		defined[filepath.Base(filepath.Dir(main))] = flags
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	notes, err := filepath.Glob(".*/skills/*/SKILL.md") // the build-and-run notes kept beside the code
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	cited := map[string]bool{}
	for _, doc := range append(append(docs, notes...), "README.md", "DESIGN.md", "EXPERIMENTS.md") {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllSubmatch(text, -1) {
			cmd, args := citedCommand(strings.Fields(string(m[1])))
			if defined[cmd] == nil {
				continue
			}
			for _, arg := range args {
				arg = strings.Trim(arg, "[]()|,;")
				name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
				if !strings.HasPrefix(arg, "-") || name == "" || name[0] < 'a' || name[0] > 'z' {
					continue
				}
				cited[cmd+" -"+name] = true
				if !defined[cmd][name] {
					t.Errorf("%s cites `%s -%s`, which cmd/%s does not define", doc, cmd, name, cmd)
				}
			}
		}
	}
	if len(cited) == 0 {
		t.Fatal("no command flag found in the docs: the pattern has rotted")
	}
}

// citedCommand splits a code span's words into the command it runs — its
// first word, or the ./cmd/<name> of a `go run` — and that command's
// arguments.
func citedCommand(words []string) (string, []string) {
	if len(words) >= 2 && words[0] == "go" && words[1] == "run" {
		for i, w := range words[2:] {
			if name, ok := strings.CutPrefix(w, "./cmd/"); ok {
				return name, words[2+i+1:]
			}
		}
		return "", nil
	}
	if len(words) == 0 {
		return "", nil
	}
	return words[0], words[1:]
}
