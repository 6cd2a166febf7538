package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRowf("x", "1.5")
	tb.AddRowf("longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Error("missing title")
	}
	// All data lines must be equally wide (right-aligned columns).
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("rows unaligned:\n%s", out)
	}
	if len(tb.rows) != 2 {
		t.Errorf("%d rows, want 2", len(tb.rows))
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRowf("1")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

// TestTableCellFormatting: AddRowf cells are preformatted, so they
// render verbatim, unrounded and unpadded inside their column.
func TestTableCellFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRowf("3.14159265")
	if !strings.Contains(tb.String(), "3.14159265\n") {
		t.Errorf("preformatted cell changed:\n%s", tb.String())
	}
	tb.AddRowf("42")
	if !strings.Contains(tb.String(), "        42\n") {
		t.Errorf("short cell not right-aligned to the column:\n%s", tb.String())
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline runes = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline extremes wrong: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty input should render empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat series should render lowest block: %q", flat)
		}
	}
}
