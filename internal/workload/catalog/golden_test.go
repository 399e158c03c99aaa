package catalog_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsa/internal/experiments"
	"dsa/internal/metrics"
	"dsa/internal/workload/catalog"
)

// TestBatteryByteIdenticalUnderEviction: in stores far below one
// battery's working set (about 8 MB), workloads are evicted mid-battery
// — at 64 KiB also regenerated — and the tables still equal the serial
// golden at every width.
func TestBatteryByteIdenticalUnderEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full battery seven times")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments", "testdata", "all_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	battery := func(store *catalog.Catalog, parallel int) catalog.Stats {
		t.Helper()
		var b strings.Builder
		err := experiments.StreamConfig(context.Background(), experiments.Config{Parallel: parallel, Store: store},
			func(tb *metrics.Table) { fmt.Fprintln(&b, tb) })
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("parallel %d: the battery diverged from the golden (%d vs %d bytes)", parallel, b.Len(), len(want))
		}
		return store.Stats()
	}
	resident := battery(catalog.New(), 1)
	if resident.Evictions != 0 {
		t.Fatalf("the default budget evicted during one battery: %+v", resident)
	}
	for _, budget := range []int64{1 << 20, 64 << 10} {
		for _, parallel := range []int{1, 2, 4} {
			st := battery(catalog.NewBudgeted(budget), parallel)
			if st.Evictions == 0 {
				t.Errorf("budget %d, parallel %d: stats %+v, want evictions", budget, parallel, st)
			}
			if budget == 64<<10 && st.Generations <= resident.Generations {
				t.Errorf("budget %d, parallel %d: %d generations, want regenerations beyond the %d of an unbounded store",
					budget, parallel, st.Generations, resident.Generations)
			}
		}
	}
}
