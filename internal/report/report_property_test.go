package report

import (
	"strings"
	"testing"
)

// TestTableGolden pins a full rendering byte-for-byte: titles, header
// rule width, right-alignment padding and the two-space gutter.
func TestTableGolden(t *testing.T) {
	tb := NewTable("corner signoff", "node", "derate", "delay")
	tb.AddRowf("45nm", "1.072", "7.164e-09")
	tb.AddRowf("22nm PTM HP", "1.116", "3.512e-09")
	want := "corner signoff\n" +
		"       node  derate      delay\n" +
		"--------------------------------\n" +
		"       45nm   1.072  7.164e-09\n" +
		"22nm PTM HP   1.116  3.512e-09\n"
	if got := tb.String(); got != want {
		t.Errorf("rendered table:\n%q\nwant:\n%q", got, want)
	}
}

// TestTableAlignmentProperty renders tables over a spread of ragged
// cell shapes and asserts the structural alignment invariants: every
// data line is exactly as wide as the rule, and every cell ends at its
// column boundary regardless of content width.
func TestTableAlignmentProperty(t *testing.T) {
	cases := [][][]string{
		{{"a", "bb"}, {"ccc", "d"}},
		{{"", ""}, {"x", "yyyyyyyyyy"}},
		{{"one"}, {"three"}},            // short rows are legal with AddRowf
		{{"αβγ", "δ"}, {"ε", "ζηθικλ"}}, // multi-byte runes count as one cell unit
	}
	for _, rows := range cases {
		tb := NewTable("", "left", "right")
		for _, row := range rows {
			tb.AddRowf(row...)
		}
		lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
		ruleWidth := len([]rune(lines[1]))
		// A complete row ends flush with the last column; the rule carries
		// the trailing gutter of every column, so the grid width is
		// ruleWidth − 2. The header always has one cell per column.
		grid := ruleWidth - 2
		if w := len([]rune(lines[0])); w != grid {
			t.Errorf("header width %d, want grid width %d:\n%s", w, grid, tb.String())
		}
		for i, line := range lines[2:] {
			w := len([]rune(line))
			if len(rows[i]) == 2 && w != grid {
				t.Errorf("complete row width %d, want grid width %d:\n%s", w, grid, tb.String())
			}
			if w > grid {
				t.Errorf("row wider than the column grid (%d > %d):\n%s", w, grid, tb.String())
			}
		}
	}
}

// TestSparklineProperties: one block per value, extremes mapped to the
// lowest and highest blocks, and monotone input producing monotone
// block heights.
func TestSparklineProperties(t *testing.T) {
	blocks := []rune("▁▂▃▄▅▆▇█")
	level := func(r rune) int {
		for i, b := range blocks {
			if b == r {
				return i
			}
		}
		t.Fatalf("rune %q is not a sparkline block", r)
		return -1
	}

	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	runes := []rune(Sparkline(vals))
	if len(runes) != len(vals) {
		t.Fatalf("%d blocks for %d values", len(runes), len(vals))
	}
	lo, hi := 1, 9
	for i, v := range vals {
		l := level(runes[i])
		if v == float64(lo) && l != 0 {
			t.Errorf("minimum value rendered at level %d", l)
		}
		if v == float64(hi) && l != len(blocks)-1 {
			t.Errorf("maximum value rendered at level %d", l)
		}
	}

	mono := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	prev := -1
	for _, r := range Sparkline(mono) {
		l := level(r)
		if l < prev {
			t.Fatalf("monotone input rendered non-monotone blocks: %q", Sparkline(mono))
		}
		prev = l
	}

	if got := Sparkline([]float64{-2}); []rune(got)[0] != blocks[0] {
		t.Errorf("single value should render the base block, got %q", got)
	}
	if got := Sparkline([]float64{-5, -1}); level([]rune(got)[1]) != len(blocks)-1 {
		t.Errorf("negative-range maximum not at top block: %q", got)
	}
}
