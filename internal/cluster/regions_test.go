package cluster

import "testing"

// TestRegionEdges holds the cluster model's LBN -> region rule to the
// storage trainer's edge table in internal/kooza.
func TestRegionEdges(t *testing.T) {
	for _, c := range []struct {
		diskBlocks int64
		regions    int
		lbn        int64
		want       int
	}{
		{8000, 8, -1, 0}, {8000, 8, -1 << 40, 0}, {8000, 8, 0, 0}, {8000, 8, 999, 0},
		{8000, 8, 1000, 1}, {8000, 8, 7999, 7}, {8000, 8, 8000, 7}, {8000, 8, 1 << 40, 7},
		{8001, 8, 8000, 7}, {5, 8, 0, 0}, {5, 8, 4, 4}, {5, 8, 7, 7}, {5, 8, 8, 7},
	} {
		m, err := NewModel(ModelConfig{DiskBlocks: c.diskBlocks, StorageRegions: c.regions})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.regions.Of(c.lbn); got != c.want {
			t.Errorf("disk %d, %d regions: lbn %d in region %d, want %d", c.diskBlocks, c.regions, c.lbn, got, c.want)
		}
	}
}
