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
// ./cmd/iotwatch -once`) and in fenced shell blocks. Every -flag such a line
// gives a command must be one that command's flag set defines, so deleting a
// flag cannot leave the docs telling a reader to pass it.
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

	cited := map[string]bool{}
	for _, c := range docCommands(t) {
		cmd, _, args := citedCommand(c.words)
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
				t.Errorf("%s cites `%s -%s`, which cmd/%s does not define", c.doc, cmd, name, cmd)
			}
		}
	}
	if len(cited) == 0 {
		t.Fatal("no command flag found in the docs: the pattern has rotted")
	}
}

// A `go run ./cmd/<name>` or `go run ./examples/<name>` the docs cite must
// name a directory that exists, so deleting a program cannot leave the docs
// telling a reader to run it.
func TestDocsRunExistingPackages(t *testing.T) {
	runs := 0
	for _, c := range docCommands(t) {
		_, dir, _ := citedCommand(c.words)
		if dir == "" || strings.Contains(dir, "<") { // ./cmd/<name> is a placeholder
			continue
		}
		runs++
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("%s runs `go run %s`, which is not a directory", c.doc, dir)
		}
	}
	if runs == 0 {
		t.Fatal("no go run found in the docs: the pattern has rotted")
	}
}

// docCommand is one command line a doc cites: its words and the doc.
type docCommand struct {
	doc   string
	words []string
}

// docCommands collects the command lines the docs cite: every code span,
// and every line of a fenced block with its backslash continuations joined
// and its trailing # comment dropped. A line is split at the shell's
// command separators (pipes, ;, &&, ||, &, and $( substitutions), so each
// piece is read as one command.
func docCommands(t *testing.T) []docCommand {
	t.Helper()
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	notes, err := filepath.Glob(".*/skills/*/SKILL.md") // the build-and-run notes kept beside the code
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	comment := regexp.MustCompile(`(^|\s)#.*$`)
	separator := regexp.MustCompile(`\|\||&&|[|;&]|\$\(`)
	var out []docCommand
	add := func(doc, line string) {
		for _, piece := range separator.Split(line, -1) {
			if words := strings.Fields(piece); len(words) > 0 {
				out = append(out, docCommand{doc, words})
			}
		}
	}
	for _, doc := range append(append(docs, notes...), "README.md", "DESIGN.md", "EXPERIMENTS.md") {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced, joined := false, ""
		for _, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if !fenced {
				for _, m := range span.FindAllStringSubmatch(line, -1) {
					add(doc, m[1])
				}
				continue
			}
			line = comment.ReplaceAllString(line, "")
			if cont, ok := strings.CutSuffix(strings.TrimRight(line, " "), "\\"); ok {
				joined += cont + " "
				continue
			}
			add(doc, joined+line)
			joined = ""
		}
	}
	return out
}

// citedCommand splits a command line's words into the command it runs — its
// first word, or the ./cmd/<name> of a `go run` — that command's arguments,
// and the package directory a `go run` names ("" for any other command).
func citedCommand(words []string) (cmd, dir string, args []string) {
	if len(words) >= 2 && words[0] == "go" && words[1] == "run" {
		for i, w := range words[2:] {
			if strings.HasPrefix(w, "./") {
				if name, ok := strings.CutPrefix(w, "./cmd/"); ok {
					cmd = name
				}
				return cmd, w, words[2+i+1:]
			}
		}
		return "", "", nil
	}
	if len(words) == 0 {
		return "", "", nil
	}
	return words[0], "", words[1:]
}
