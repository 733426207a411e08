package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestPinnedFleetReports pins the clean fleet report bytes across
// versions: the SHA-256 of Report.Encode for the four-channel,
// 100-tenant default sweep over 20k cycles, one seed at a time. These are
// the report hashes of the repository benchmark's fleet-ni input sets 0
// and 1.
func TestPinnedFleetReports(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		sum  string
	}{
		{1, "94f1ccc5bf9d62ce55e261ef009c78fdf722584a535b1b652667b4a29a3059f4"},
		{2, "e370a145abae24e517eb939d160ca1dd8f7f38fa52b6057021f5fbfd015812f6"},
	} {
		sweep := DefaultSweep(4, 100, []int64{tc.seed}, 20_000)
		rep, err := Run(context.Background(), sweep, Options{
			Workers:         2,
			Dir:             t.TempDir(),
			CheckpointEvery: 5_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.sum {
			t.Fatalf("seed %d: report hashes to %s, pinned %s", tc.seed, got, tc.sum)
		}
	}
}
