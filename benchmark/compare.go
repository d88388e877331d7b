package main

// -compare a.json b.json: one row per workload x end-to-end metric, b against
// a. Host-clock metrics are judged against the bound in the metric table;
// where either file's own run-to-run spread exceeds that bound the row is
// "unresolved", not "ok". On an exact workload driven by the same seed and
// sizing, the simulated metrics and both digests must be equal, not close.
// The exit code is non-zero on any row that is worse, differs or is missing.

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one metric: b against a.
func verdict(d metricDef, a, b metricValue, mustEqual bool) string {
	if mustEqual {
		if a.Value == b.Value {
			return "ok"
		}
		return "differs"
	}
	if a.Spread > d.Bound || b.Spread > d.Bound {
		return "unresolved"
	}
	worse := (b.Value - a.Value) / a.Value
	if d.Better == higher {
		worse = -worse
	}
	if worse > d.Bound {
		return "worse"
	}
	return "ok"
}

// short abbreviates a digest for the table; a hand-made or older file may
// carry a short or empty one.
func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	if digest == "" {
		return "-"
	}
	return digest
}

func compareFiles(pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	sameInput := a.Seed == b.Seed && a.Seconds == b.Seconds && a.Scale == b.Scale
	rows, bad := 0, 0
	fmt.Printf("%-20s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil && wb == nil {
			continue // neither file ran it
		}
		row := func(metric, va, vb, ratio, bound, v string) {
			fmt.Printf("%-20s %-20s %14s %14s %8s %7s  %s\n", w.name, metric, va, vb, ratio, bound, v)
			rows++
			if v != "ok" && v != "unresolved" {
				bad++
			}
		}
		// A workload or metric that only one file has is a "missing" row and
		// fails the comparison: a gate that skipped it would pass vacuously.
		if wa == nil || wb == nil {
			ran := map[bool]string{true: "ran", false: "-"}
			row("(workload)", ran[wa != nil], ran[wb != nil], "", "", "missing")
			continue
		}
		digest := func(metric, da, db string) {
			v := "ok"
			if da == "" || db == "" {
				v = "missing"
			} else if da != db {
				v = "differs"
			}
			row(metric, short(da), short(db), "", "exact", v)
		}
		if sameInput {
			digest("stream_digest", wa.StreamDigest, wb.StreamDigest)
			if w.exact {
				digest("exposition_digest", wa.ExpositionDigest, wb.ExpositionDigest)
			}
		}
		if wa.OpsFailed+wb.OpsFailed > 0 {
			row("ops_failed", fmt.Sprint(wa.OpsFailed), fmt.Sprint(wb.OpsFailed), "", "0", "worse")
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			exact := sameInput && w.exact && simulated[d.Name]
			bound := fmt.Sprintf("%.2f", d.Bound)
			if exact {
				bound = "exact"
			}
			if !okA || !okB {
				val := func(m metricValue, ok bool) string {
					if !ok {
						return "-"
					}
					return fmt.Sprintf("%.6g", m.Value)
				}
				row(d.Name, val(ma, okA), val(mb, okB), "", bound, "missing")
				continue
			}
			row(d.Name, fmt.Sprintf("%.6g", ma.Value), fmt.Sprintf("%.6g", mb.Value),
				fmt.Sprintf("%.4f", ratio(mb.Value, ma.Value)), bound, verdict(d, ma, mb, exact))
		}
	}
	if rows == 0 {
		fmt.Println("the two files have no workload to compare")
		return 1
	}
	if bad > 0 {
		fmt.Printf("%d rows worse, different or missing\n", bad)
		return 1
	}
	return 0
}
