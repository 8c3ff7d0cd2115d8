// Package experiments is the paper's characterization engine: one
// harness per table and figure of the evaluation (Figs. 5-8, Tables
// III, V, VI, VII) and a supplementary scene-content analysis, each
// rendering the rows and series the paper reports from full-system runs
// of the assembled stack, plus the five findings read off the same
// runs. Runs caches those runs, so each configuration simulates once
// however many experiments read it; RunAll writes the whole report and
// WriteCSV the raw data behind the figures (EXPERIMENTS.md records both
// against the paper).
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/mathx"
)

// Table renders rows of aligned columns with a header.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "| "+strings.Join(parts, " | ")+" |")
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Violin renders a latency distribution as an ASCII horizontal violin:
// density bars over the value range, with min/q1/mean/q3/max markers —
// the textual analogue of one series in Figs. 5/6.
func Violin(w io.Writer, label string, samples []float64, lo, hi float64, width int) {
	s := mathx.Summarize(samples)
	if s.Count == 0 {
		fmt.Fprintf(w, "%-24s (no samples)\n", label)
		return
	}
	if hi <= lo {
		hi = lo + 1
	}
	h := mathx.NewHistogram(lo, hi, width)
	for _, v := range samples {
		h.Add(v)
	}
	maxBin := 0
	for _, c := range h.Bins {
		if c > maxBin {
			maxBin = c
		}
	}
	glyphs := []rune(" .:-=+*#%@")
	var b strings.Builder
	for _, c := range h.Bins {
		idx := 0
		if maxBin > 0 {
			idx = c * (len(glyphs) - 1) / maxBin
		}
		b.WriteRune(glyphs[idx])
	}
	fmt.Fprintf(w, "%-24s |%s|\n", label, b.String())
	fmt.Fprintf(w, "%-24s  min=%.1f q1=%.1f mean=%.1f q3=%.1f max=%.1f sd=%.2f (ms, n=%d)\n",
		"", s.Min, s.Q1, s.Mean, s.Q3, s.Max, s.StdDev, s.Count)
}

// Pct formats a fraction as a percentage string.
func Pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }

// Section writes a titled separator.
func Section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
