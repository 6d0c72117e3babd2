package model

import (
	"fmt"
	"strings"
)

// RenderTable formats a model table as aligned text.
func RenderTable(t Table) string {
	var b strings.Builder
	fmt.Fprintln(&b, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "| %-*s ", widths[i], c)
		}
		fmt.Fprintln(&b, "|")
	}
	line(t.Columns)
	total := 1
	for _, w := range widths {
		total += w + 3
	}
	fmt.Fprintln(&b, strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// RenderSeries formats figure curves as an aligned series table, one X
// column and one Y column per series.
func RenderSeries(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	if len(series) == 0 {
		return b.String()
	}
	// Header.
	fmt.Fprintf(&b, "%16s", series[0].XName)
	for _, s := range series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	fmt.Fprintf(&b, "   [%s]\n", series[0].YName)
	// Union of X values in order of the longest series.
	longest := series[0]
	for _, s := range series {
		if len(s.X) > len(longest.X) {
			longest = s
		}
	}
	for _, x := range longest.X {
		fmt.Fprintf(&b, "%16.0f", x)
		for _, s := range series {
			y, ok := lookup(s, x)
			if !ok {
				fmt.Fprintf(&b, " %22s", "-")
				continue
			}
			fmt.Fprintf(&b, " %22.2f", y)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func lookup(s Series, x float64) (float64, bool) {
	for i := range s.X {
		if s.X[i] == x {
			return s.Y[i], true
		}
	}
	return 0, false
}
