package main

// The `faults` subcommand: parse a fault-plan file and dump the resolved,
// deterministic fault schedule — which occurrence of each site each rule
// fires on — so an experiment's failure points can be inspected before (or
// instead of) running it.
//
// Usage:
//
//	bandslim-cli faults [-salt N] [-max-occ N] <plan-file|->
//
// -salt selects the shard whose schedule to resolve (a DB salts each
// shard's fault stream with its shard id; a one-shard DB uses salt 0).
// Probabilistic rules resolve through the same seeded RNG the injector uses,
// so the printed schedule is exactly what that run will execute.

import (
	"flag"
	"fmt"
	"io"

	"bandslim/internal/fault"
)

func (c *cli) faults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	salt := fs.Uint64("salt", 0, "injector salt (= shard id; 0 for a one-shard DB)")
	maxOcc := fs.Int("max-occ", 100, "resolve each rule over its first N in-window site occurrences")
	if err := c.parse(fs, args, "bandslim-cli faults [-salt N] [-max-occ N] <plan-file|->", 1); err != nil {
		return err
	}
	if *maxOcc < 1 {
		return fmt.Errorf("%w: -max-occ %d (want >= 1)", errUsage, *maxOcc)
	}
	var text []byte
	err := c.readArg(fs.Arg(0), func(r io.Reader) (err error) {
		text, err = io.ReadAll(r)
		return err
	})
	if err != nil {
		return err
	}
	plan, err := fault.ParsePlan(string(text))
	if err != nil {
		return err
	}
	out := c.out
	fmt.Fprintf(out, "plan: seed=%d rules=%d salt=%d\n", plan.Seed, len(plan.Rules), *salt)
	schedule := plan.Resolve(*salt, *maxOcc)
	for i, r := range plan.Rules {
		fmt.Fprintf(out, "rule %d: %s\n", i, fault.FormatRule(r))
		switch {
		case r.At != 0:
			fmt.Fprintf(out, "  fires at simulated instant (time-armed), not on an occurrence index\n")
		case len(schedule[i]) == 0:
			fmt.Fprintf(out, "  no firings in the first %d occurrences\n", *maxOcc)
		default:
			fmt.Fprintf(out, "  fires on occurrence")
			for _, n := range schedule[i] {
				fmt.Fprintf(out, " %d", n)
			}
			fmt.Fprintf(out, " (of first %d)\n", *maxOcc)
		}
	}
	return nil
}
