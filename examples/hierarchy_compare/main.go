// hierarchy_compare reproduces the Fig. 4 scenario on a handful of
// benchmarks: the conventional L2-256KB baseline against L-NUCAs of 2..4
// levels, reporting per-benchmark IPC, load latency and energy savings.
package main

import (
	"context"
	"fmt"
	"log"

	lightnuca "repro"
	"repro/internal/power"
)

var benchmarks = []string{"403.gcc", "429.mcf", "434.zeusmp", "482.sphinx3"}

func main() {
	type cell struct {
		ipc    float64
		energy power.Breakdown
	}
	configs := []struct {
		name   string
		h      lightnuca.Hierarchy
		levels int
	}{
		{"L2-256KB", lightnuca.Conventional, 0},
		{"LN2-72KB", lightnuca.LNUCAPlusL3, 2},
		{"LN3-144KB", lightnuca.LNUCAPlusL3, 3},
		{"LN4-248KB", lightnuca.LNUCAPlusL3, 4},
	}

	ctx := context.Background()
	runner := &lightnuca.Local{}
	results := map[string]map[string]cell{}
	for _, b := range benchmarks {
		results[b] = map[string]cell{}
		for _, c := range configs {
			res, err := runner.Run(ctx, lightnuca.Request{
				Hierarchy: lightnuca.HierarchyName(c.h), Levels: c.levels, Benchmark: b, Seed: 1,
			})
			if err != nil {
				log.Fatal(err)
			}
			results[b][c.name] = cell{ipc: res.IPC, energy: res.Energy}
		}
	}

	fmt.Printf("%-14s", "benchmark")
	for _, c := range configs {
		fmt.Printf("  %-10s", c.name)
	}
	fmt.Println(" (IPC, gain vs baseline)")
	for _, b := range benchmarks {
		fmt.Printf("%-14s", b)
		base := results[b][configs[0].name].ipc
		for _, c := range configs {
			ipc := results[b][c.name].ipc
			fmt.Printf("  %.3f %+4.1f%%", ipc, 100*(ipc-base)/base)
		}
		fmt.Println()
	}

	fmt.Println("\nenergy savings vs baseline (total, %):")
	for _, b := range benchmarks {
		fmt.Printf("%-14s", b)
		base := results[b][configs[0].name].energy
		for _, c := range configs[1:] {
			fmt.Printf("  %-10s %+5.1f%%", c.name, results[b][c.name].energy.SavingsPercentVs(base))
		}
		fmt.Println()
	}
	fmt.Println("\npaper (suite means): IPC +5.4..6.2% int / +14.3..15.4% fp; energy savings 10.5..16.5%")
}
