// Package trace defines the resource-occupation event model shared by the
// schedule types, the discrete-event simulator and the Gantt renderers.
//
// A schedule or a simulation run reduces to a set of half-open intervals
// [Start, End) during which a named resource (a link, a processor, the
// master's send port) is occupied by a task. Two intervals on the same
// resource must never overlap — that is exactly the content of conditions
// (3) and (4) of the paper's Definition 1.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/platform"
)

// Kind distinguishes what the occupation stands for.
type Kind int

const (
	// Comm is a task traversing a link.
	Comm Kind = iota
	// Exec is a task executing on a processor.
	Exec
	// Wait is a task buffered at a node, waiting for its processor
	// (the dashed curve of the paper's Fig. 2). Wait intervals may
	// overlap: buffering is unbounded in the model.
	Wait
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Comm:
		return "comm"
	case Exec:
		return "exec"
	case Wait:
		return "wait"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Interval is one occupation of one resource by one task.
type Interval struct {
	Resource string        `json:"resource"`
	Task     int           `json:"task"` // 1-based task index
	Kind     Kind          `json:"kind"`
	Start    platform.Time `json:"start"`
	End      platform.Time `json:"end"`
}

// Duration returns End − Start.
func (iv Interval) Duration() platform.Time { return iv.End - iv.Start }

// String renders the interval compactly.
func (iv Interval) String() string {
	return fmt.Sprintf("%s task%d %s[%d,%d)", iv.Resource, iv.Task, iv.Kind, iv.Start, iv.End)
}

// Sort orders intervals by resource, then start time, then task. The
// renderers and the overlap checker rely on this order.
func Sort(ivs []Interval) {
	sort.SliceStable(ivs, func(i, j int) bool {
		a, b := ivs[i], ivs[j]
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Task < b.Task
	})
}

// Resources returns the distinct resource names in first-appearance
// order.
func Resources(ivs []Interval) []string {
	seen := map[string]bool{}
	var out []string
	for _, iv := range ivs {
		if !seen[iv.Resource] {
			seen[iv.Resource] = true
			out = append(out, iv.Resource)
		}
	}
	return out
}

// CheckOverlaps verifies that no two Comm/Exec intervals on the same
// resource overlap (Wait intervals are exempt: buffering is unbounded).
// It returns a descriptive error naming the first offending pair.
func CheckOverlaps(ivs []Interval) error {
	busy := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Kind != Wait {
			busy = append(busy, iv)
		}
	}
	Sort(busy)
	for i := 1; i < len(busy); i++ {
		prev, cur := busy[i-1], busy[i]
		if cur.Resource == prev.Resource && cur.Start < prev.End {
			return fmt.Errorf("trace: resource %q overlap: %v and %v", cur.Resource, prev, cur)
		}
	}
	return nil
}

// Span returns the earliest start and the latest end over all intervals;
// ok is false when the slice is empty.
func Span(ivs []Interval) (start, end platform.Time, ok bool) {
	if len(ivs) == 0 {
		return 0, 0, false
	}
	start, end = ivs[0].Start, ivs[0].End
	for _, iv := range ivs[1:] {
		if iv.Start < start {
			start = iv.Start
		}
		if iv.End > end {
			end = iv.End
		}
	}
	return start, end, true
}

// WriteCSV emits the intervals as a CSV table with a header row.
func WriteCSV(w io.Writer, ivs []Interval) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"resource", "task", "kind", "start", "end"}); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	for _, iv := range ivs {
		rec := []string{
			iv.Resource,
			strconv.Itoa(iv.Task),
			iv.Kind.String(),
			strconv.FormatInt(int64(iv.Start), 10),
			strconv.FormatInt(int64(iv.End), 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: writing CSV record: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flushing CSV: %w", err)
	}
	return nil
}

// WriteJSON emits the intervals as an indented JSON array.
func WriteJSON(w io.Writer, ivs []Interval) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ivs); err != nil {
		return fmt.Errorf("trace: writing JSON: %w", err)
	}
	return nil
}
