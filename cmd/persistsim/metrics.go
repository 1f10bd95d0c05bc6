package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/sim"
)

// windows is what -metrics writes: the machine's counters read every
// window cycles (machine.RunEvery), one row of differences per window.
type windows struct {
	window sim.Cycle
	last   machine.Counters // the previous reading
	rows   [][]uint64
}

// columns is the -metrics header: the window's first cycle and width, then
// one column per sample of machine.Families — the family's name, or
// <name>_<label value> for a labelled family — in table order.
func columns() []string {
	cols := []string{"start", "window"}
	var zero machine.Counters
	for _, f := range machine.Families {
		for _, s := range f.Samples(&zero) {
			name := f.Name
			if s.Label != "" {
				name += "_" + s.Label
			}
			cols = append(cols, name)
		}
	}
	return cols
}

// observe appends the row of the window whose last reading is c.
func (w *windows) observe(c machine.Counters) {
	row := []uint64{uint64(len(w.rows)) * uint64(w.window), uint64(w.window)}
	for _, f := range machine.Families {
		prev := f.Samples(&w.last)
		for i, s := range f.Samples(&c) {
			row = append(row, s.Value-prev[i].Value)
		}
	}
	w.last = c
	w.rows = append(w.rows, row)
}

// writeCSV writes the header and one line per window. A csv.Writer keeps
// the first Write error, so Error after Flush reports every one.
func (w *windows) writeCSV(out io.Writer) error {
	cw := csv.NewWriter(out)
	cw.Write(columns())
	var rec []string
	for _, row := range w.rows {
		rec = rec[:0]
		for _, v := range row {
			rec = append(rec, strconv.FormatUint(v, 10))
		}
		cw.Write(rec)
	}
	cw.Flush()
	return cw.Error()
}

// writeJSON writes the windows as an array of objects keyed by column.
func (w *windows) writeJSON(out io.Writer) error {
	cols := columns()
	objs := make([]map[string]uint64, len(w.rows))
	for i, row := range w.rows {
		objs[i] = make(map[string]uint64, len(cols))
		for j, v := range row {
			objs[i][cols[j]] = v
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	return enc.Encode(objs)
}
