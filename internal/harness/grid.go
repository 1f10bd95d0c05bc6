package harness

import (
	"persistbarriers/internal/machine"
	"persistbarriers/internal/stats"
)

// Grid is one study of the evaluation: every row (a workload) run under
// every column (a machine configuration, named the way the figure labels
// its bar).
type Grid struct {
	Rows, Cols []string
	Results    map[string]map[string]*machine.Result // row -> col -> result
}

// runGrid builds job(row, col) for every cell, runs them all as one sweep
// under opt and files each result at its cell.
func runGrid(opt Options, rows, cols []string, job func(row, col string) Job) (*Grid, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	jobs := make([]Job, 0, len(rows)*len(cols))
	for _, row := range rows {
		for _, col := range cols {
			j := job(row, col)
			j.Key = row + "/" + col
			jobs = append(jobs, j)
		}
	}
	results, err := Sweep(jobs, opt.sweepOptions())
	if err != nil {
		return nil, err
	}
	g := &Grid{Rows: rows, Cols: cols, Results: make(map[string]map[string]*machine.Result)}
	for i, row := range rows {
		g.Results[row] = make(map[string]*machine.Result)
		for j, col := range cols {
			g.Results[row][col] = results[i*len(cols)+j]
		}
	}
	return g, nil
}

// cell computes one table cell from a grid row's results.
type cell func(row map[string]*machine.Result, col string) float64

// relative is the cell metric(col) / metric(base) within the same row,
// or 0 when the base is 0.
func relative(base string, metric func(*machine.Result) float64) cell {
	return func(row map[string]*machine.Result, col string) float64 {
		b := metric(row[base])
		if b == 0 {
			return 0
		}
		return metric(row[col]) / b
	}
}

func execCycles(r *machine.Result) float64 { return float64(r.ExecCycles) }

// means are the closing rows a grid table can end with.
var means = map[string]func([]float64) float64{"gmean": stats.Gmean, "amean": stats.Amean}

// column returns cell(row, col) for every row in order.
func (g *Grid) column(col string, c cell) []float64 {
	vs := make([]float64, len(g.Rows))
	for i, row := range g.Rows {
		vs[i] = c(g.Results[row], col)
	}
	return vs
}

// table renders the grid: one line per row holding c for each of cols
// formatted with verb, then a closing line named mean ("gmean" or
// "amean") that reduces each column. headers[0] heads the row labels.
func (g *Grid) table(title string, headers, cols []string, verb string, c cell, mean string) *stats.Table {
	t := stats.NewTable(title, headers...)
	vals := make([][]float64, len(cols))
	for j, col := range cols {
		vals[j] = g.column(col, c)
	}
	line := make([]float64, len(cols))
	for i, row := range g.Rows {
		for j := range cols {
			line[j] = vals[j][i]
		}
		t.AddF(row, verb, line...)
	}
	for j := range cols {
		line[j] = means[mean](vals[j])
	}
	t.AddF(mean, verb, line...)
	return t
}
