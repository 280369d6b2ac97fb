package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite testdata/figures.golden and EXPERIMENTS.md's figure blocks from this tree")

const (
	goldenPath      = "testdata/figures.golden"
	experimentsPath = "../../EXPERIMENTS.md"
)

// TestFiguresMatchGolden regenerates every simulated figure and checks
// each modeled value, printed exactly, against testdata/figures.golden,
// and each printed table against its block in EXPERIMENTS.md. A change
// that moves a modeled number shows as a diff of both files, written by
//
//	go test ./internal/bench -run TestFiguresMatchGolden -update
func TestFiguresMatchGolden(t *testing.T) {
	var exact strings.Builder
	printed := make(map[string]string)
	for _, f := range Figures {
		if !f.Simulated {
			continue
		}
		ts, err := f.tables(0)
		if err != nil {
			t.Fatalf("fig %s: %v", f.Name, err)
		}
		fmt.Fprintf(&exact, "== fig %s\n", f.Name)
		var p strings.Builder
		for _, tb := range ts {
			tb.exact(&exact)
			tb.print(&p)
		}
		printed[f.Name] = p.String()
	}
	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	filled, err := fillFigureBlocks(string(doc), printed)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(exact.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentsPath, []byte(filled), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffLines(string(golden), exact.String()); d != "" {
		t.Errorf("simulated figures differ from %s (review, then rerun with -update):\n%s", goldenPath, d)
	}
	if filled != string(doc) {
		t.Errorf("EXPERIMENTS.md's figure blocks differ from the printed figures:\n%s\n(rerun with -update)",
			diffLines(string(doc), filled))
	}
}

const (
	blockOpen  = "<!-- fig:"
	blockClose = "<!-- /fig -->"
)

// fillFigureBlocks replaces the body of every `<!-- fig:NAME -->` …
// `<!-- /fig -->` block of doc with figure NAME's printed table in a
// text fence. Every printed figure must have exactly one block, and every
// block must name a printed figure.
func fillFigureBlocks(doc string, printed map[string]string) (string, error) {
	var out strings.Builder
	seen := make(map[string]bool)
	for {
		i := strings.Index(doc, blockOpen)
		if i < 0 {
			break
		}
		eol := strings.Index(doc[i:], " -->\n")
		if eol < 0 {
			return "", fmt.Errorf("unterminated %q marker", doc[i:])
		}
		name := doc[i+len(blockOpen) : i+eol]
		body, ok := printed[name]
		if !ok {
			return "", fmt.Errorf("EXPERIMENTS.md block %q names no simulated figure", name)
		}
		if seen[name] {
			return "", fmt.Errorf("EXPERIMENTS.md has two blocks for fig %s", name)
		}
		seen[name] = true
		start := i + eol + len(" -->\n")
		end := strings.Index(doc[start:], blockClose)
		if end < 0 {
			return "", fmt.Errorf("fig %s block has no %s", name, blockClose)
		}
		out.WriteString(doc[:start])
		out.WriteString("```text\n" + body + "```\n")
		doc = doc[start+end:]
	}
	out.WriteString(doc)
	for name := range printed {
		if !seen[name] {
			return "", fmt.Errorf("EXPERIMENTS.md has no <!-- fig:%s --> block", name)
		}
	}
	return out.String(), nil
}

// diffLines compares want and got line by line and reports how many lines
// differ and the first few of them; "" when they are equal.
func diffLines(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := 0
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if n++; n <= 20 {
			fmt.Fprintf(&b, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
		}
	}
	fmt.Fprintf(&b, "%d line(s) differ (%d lines before, %d now)", n, len(w), len(g))
	return b.String()
}
