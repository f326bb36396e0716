package admit

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// goldenTrajectory is the recorded per-decision trajectory of the 300-request
// default-preset trace replayed by TestAdmissionTrajectoryGolden, one line
// per decision (see trajectoryLine).
const goldenTrajectory = "testdata/trajectory_seed3_n300.golden"

// trajectoryLine renders the deterministic fields of one decision: the
// verdict, the tier, the exact bits of the committed times and the pinned LP
// bound, and the solver counters of the admission.
func trajectoryLine(d Decision) string {
	return fmt.Sprintf("%d %t %s %016x %016x %016x %d %d %t %t",
		d.Index, d.Accepted, d.Stats.Tier,
		math.Float64bits(d.Start), math.Float64bits(d.End), math.Float64bits(d.Stats.PinnedBound),
		d.Stats.LPIterations, d.Stats.Nodes, d.Stats.WarmUsed, d.Stats.BasisExtended)
}

// TestAdmissionTrajectoryGolden replays a fixed 300-request default-preset
// trace and compares every decision against literals recorded from an
// earlier build: not only the verdicts and schedules but the LP iteration
// and node counts and the hot-restart provenance, so a change meant to
// touch only memory management or speed cannot silently move a single
// pivot of any admission's solves.
func TestAdmissionTrajectoryGolden(t *testing.T) {
	sc := trace(t, 300, 3)
	ds := replay(t, sc, Config{}).Decisions()
	f, err := os.Open(goldenTrajectory)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for lines := bufio.NewScanner(f); lines.Scan(); {
		if line := strings.TrimSpace(lines.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(want) != len(ds) {
		t.Fatalf("golden file has %d decisions, the replay made %d", len(want), len(ds))
	}
	bad := 0
	for i, d := range ds {
		if got := trajectoryLine(d); got != want[i] {
			t.Errorf("decision %d:\n got  %s\n want %s", i, got, want[i])
			if bad++; bad == 5 {
				t.Fatal("too many mismatches")
			}
		}
	}
}
