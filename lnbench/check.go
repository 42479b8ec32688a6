package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

//go:embed pins.json
var pinsJSON []byte

// pinsPath is where -write-pins rewrites the pins, relative to the
// repository root run.sh runs from.
const pinsPath = "lnbench/pins.json"

// pinSet holds the expected per-cell outcomes: workload -> seed -> cells.
type pinSet map[string]map[string][]cellOutcome

func loadPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func (p pinSet) lookup(workload string, seed uint64) ([]cellOutcome, bool) {
	want, ok := p[workload][strconv.FormatUint(seed, 10)]
	return want, ok
}

// maxCheckErrors bounds how many mismatches a run describes.
const maxCheckErrors = 8

// outputCheck counts checked operations and failures. A simulator
// matrix is checked cell by cell against the pinned outcomes for its
// seed or, at a seed without pins, against the run's own first pass:
// every pass of a deterministic simulation must agree.
type outputCheck struct {
	want   []cellOutcome
	pinned bool
	first  []cellOutcome

	attempted, failed int
	errors            []string
}

func (c *outputCheck) fail(n int, format string, args ...interface{}) {
	c.attempted += n
	c.failed += n
	if len(c.errors) < maxCheckErrors {
		c.errors = append(c.errors, fmt.Sprintf(format, args...))
	}
}

// matrix checks one pass's outcomes.
func (c *outputCheck) matrix(got []cellOutcome) {
	ref, what := c.want, "pinned"
	if !c.pinned {
		if c.first == nil {
			c.first = got
		}
		ref, what = c.first, "first pass"
	}
	if len(got) != len(ref) {
		c.fail(len(got), "%d cells, %s has %d", len(got), what, len(ref))
		return
	}
	for i, g := range got {
		if g != ref[i] {
			c.fail(1, "%s: got %+v, %s %+v", g.Cell, g, what, ref[i])
		} else {
			c.attempted++
		}
	}
}

// writePinsFor simulates the workload's matrix once at the given seed
// and stores its outcomes in pins.json. Run it from the repository root.
func writePinsFor(ctx context.Context, o options) error {
	cells, err := simCells(o.workload)
	if err != nil {
		return err
	}
	m, err := runMatrix(ctx, cells, o.seed)
	if err != nil {
		return err
	}
	// Start from the file on disk, not the pins built into this binary,
	// so successive -write-pins runs accumulate.
	data, err := os.ReadFile(filepath.FromSlash(pinsPath))
	if err != nil {
		return err
	}
	p := pinSet{}
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("%s: %w", pinsPath, err)
	}
	if p[o.workload] == nil {
		p[o.workload] = map[string][]cellOutcome{}
	}
	p[o.workload][strconv.FormatUint(o.seed, 10)] = m.outcomes
	out, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.FromSlash(pinsPath), append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("pinned %s seed %d (%d cells) in %s\n", o.workload, o.seed, len(cells), pinsPath)
	return nil
}
