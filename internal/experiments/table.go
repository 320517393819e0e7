// Package experiments regenerates every quantitative claim of the paper
// (the TM has no numbered tables or figures; its evaluation is inline
// statistics and worked examples, indexed here as E1..E8 per DESIGN.md).
// Each experiment returns a Table that cmd/experiments prints and
// EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a formatted experiment result.
type Table struct {
	ID      string
	Title   string
	Paper   string // what the paper claims
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "**Paper claim:** %s\n\n", t.Paper)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// Spec names one experiment and its generator.
type Spec struct {
	ID    string
	Title string
	Run   func(scale Scale) (*Table, error)
}

// Scale selects experiment sizing: Full reproduces the paper-scale runs
// (cmd/experiments, EXPERIMENTS.md); Quick shrinks them for tests and
// benchmarks while keeping the qualitative shape.
type Scale int

const (
	Quick Scale = iota
	Full
)

// All lists the experiments in order; g configures the goroutine ones
// (E10, E13).
func All(g Goroutines) []Spec {
	onGoroutines := func(run func(Scale, Goroutines) (*Table, error)) func(Scale) (*Table, error) {
		return func(scale Scale) (*Table, error) { return run(scale, g) }
	}
	return []Spec{
		{ID: "E1", Title: "PAX/CASPER enablement-mapping census", Run: E1Census},
		{ID: "E2", Title: "Checkerboard rundown arithmetic (1024^2 grid, 1000 processors)", Run: E2Checkerboard},
		{ID: "E3", Title: "Rundown recovery by mapping kind", Run: E3MappingSweep},
		{ID: "E4", Title: "Tasks-per-processor outset condition", Run: E4TaskRatio},
		{ID: "E5", Title: "Computation-to-management ratio", Run: E5MgmtRatio},
		{ID: "E6", Title: "Executive control strategies", Run: E6SplitPolicies},
		{ID: "E7", Title: "Composite-map generation cost", Run: E7CompositeMapCost},
		{ID: "E8", Title: "End-to-end CASPER-profile improvement", Run: E8EndToEnd},
		{ID: "E9", Title: "Multi-job-stream batching vs phase overlap", Run: E9JobStreams},
		{ID: "E10", Title: "Executive managers head-to-head (serial vs sharded)", Run: onGoroutines(E10Managers)},
		{ID: "E11", Title: "Multi-tenant pool vs static split vs sequential overlap", Run: E11TenantPool},
		{ID: "E12", Title: "Adaptive batch tuning vs fixed batches (batched executive)", Run: E12AdaptiveBatch},
		{ID: "E13", Title: "Async executive vs steals-worker vs sharded (dedicated management goroutine)", Run: onGoroutines(E13AsyncExecutive)},
	}
}
