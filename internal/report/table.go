// Package report renders the study's tables and figures as aligned text,
// one renderer per artifact: Table 1/2, Figures 1-13 and the appendix
// tables and figures. The renderers print the same rows and series the
// paper reports, so a run's output can be placed side by side with the
// published numbers (see EXPERIMENTS.md).
package report

import (
	"fmt"
	"strings"
)

// table is a minimal aligned-text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table {
	return &table{header: header}
}

func (t *table) row(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders with column alignment: first column left, rest right.
func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				break
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func n(v int) string          { return fmt.Sprintf("%d", v) }
func f1(v float64) string     { return fmt.Sprintf("%.1f", v) }
func pctStr(v float64) string { return fmt.Sprintf("%.2f%%", v) }

func section(title string) string {
	return title + "\n" + strings.Repeat("=", len(title)) + "\n"
}
