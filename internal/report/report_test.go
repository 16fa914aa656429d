package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("beta", 2.5)
	tb.AddRow("gamma", "x")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.5") {
		t.Errorf("missing cells in %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: every row's second column starts at the same
	// offset.
	idx := strings.Index(lines[1], "value")
	for _, l := range lines[3:] {
		if len(l) < idx {
			t.Errorf("short row %q", l)
		}
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(float64(42))
	tb.AddRow(3.14159)
	out := tb.String()
	if !strings.Contains(out, "42\n") {
		t.Errorf("integral float should render bare: %q", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Errorf("float should render with 4 significant digits: %q", out)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow(1, 2)
	tb.AddRow("x", "y")
	csv := tb.CSV()
	want := "a,b\n1,2\nx,y\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestSeries(t *testing.T) {
	var buf bytes.Buffer
	if err := Series(&buf, "s", []float64{1, 2}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# series: s") || !strings.Contains(out, "1,3") {
		t.Errorf("series output %q", out)
	}
	if err := Series(&buf, "bad", []float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestHeatmap(t *testing.T) {
	var buf bytes.Buffer
	err := Heatmap(&buf, "H", []float64{1, 2}, []float64{10, 20},
		[][]float64{{0.1, 0.2}, {0.3, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"H", "10", "20", "0.100", "0.400"} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap missing %q:\n%s", want, out)
		}
	}
	if err := Heatmap(&buf, "bad", []float64{1}, nil, [][]float64{{1}, {2}}); err == nil {
		t.Error("row mismatch should fail")
	}
}

func TestWriteTo(t *testing.T) {
	tb := NewTable("T", "a")
	tb.AddRow(1)
	var buf bytes.Buffer
	n, err := tb.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
}
