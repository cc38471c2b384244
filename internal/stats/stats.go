package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Geomean returns the geometric mean of positive inputs (0 for empty input;
// non-positive entries are skipped, as the paper's geomean rows do for
// missing cells).
func Geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Speedup returns base/x — how many times faster x is than base.
func Speedup(base, x float64) float64 {
	if x == 0 {
		return 0
	}
	return base / x
}

// Table renders rows with a header as aligned plain text, in the style the
// experiment harness prints paper tables.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FormatDuration renders seconds with adaptive precision ("1.53s", "412ms").
func FormatDuration(seconds float64) string {
	switch {
	case seconds >= 1:
		return fmt.Sprintf("%.2fs", seconds)
	case seconds >= 1e-3:
		return fmt.Sprintf("%.1fms", seconds*1e3)
	default:
		return fmt.Sprintf("%.0fµs", seconds*1e6)
	}
}

// FormatCount renders large counts with suffixes ("1.5M", "2.3B").
func FormatCount(x float64) string {
	switch {
	case x >= 1e9:
		return fmt.Sprintf("%.2fB", x/1e9)
	case x >= 1e6:
		return fmt.Sprintf("%.2fM", x/1e6)
	case x >= 1e3:
		return fmt.Sprintf("%.1fK", x/1e3)
	default:
		return fmt.Sprintf("%.0f", x)
	}
}
