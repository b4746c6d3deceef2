package kooza

import "testing"

// regionEdges is the LBN -> storage-region rule at its edges: below the
// disk, the first and last block of a region, the last block of the disk,
// past its end, and a disk smaller than the region count (one block per
// region). The daemon's and the cluster's quantizers are held to the same
// table.
var regionEdges = []struct {
	diskBlocks int64
	regions    int
	lbn        int64
	want       int
}{
	{8000, 8, -1, 0},
	{8000, 8, -1 << 40, 0},
	{8000, 8, 0, 0},
	{8000, 8, 999, 0},
	{8000, 8, 1000, 1},
	{8000, 8, 7999, 7},
	{8000, 8, 8000, 7},
	{8000, 8, 1 << 40, 7},
	{8001, 8, 8000, 7},
	{5, 8, 0, 0},
	{5, 8, 4, 4},
	{5, 8, 7, 7},
	{5, 8, 8, 7},
}

// TestRegionEdges checks Regions.Of at each edge LBN, and trains a storage
// model on one I/O there to check which region's LBN distribution
// received it.
func TestRegionEdges(t *testing.T) {
	for _, c := range regionEdges {
		if got := NewRegions(c.diskBlocks, c.regions).Of(c.lbn); got != c.want {
			t.Errorf("disk %d, %d regions: lbn %d in region %d, want %d", c.diskBlocks, c.regions, c.lbn, got, c.want)
		}
		m, err := trainStorage([]storageIO{{lbn: c.lbn, bytes: 4096}}, Options{
			StorageRegions: c.regions,
			DiskBlocks:     c.diskBlocks,
		}.withDefaults())
		if err != nil {
			t.Fatalf("disk %d, %d regions, lbn %d: %v", c.diskBlocks, c.regions, c.lbn, err)
		}
		got := -1
		for st, emp := range m.StateLBNs {
			if emp != nil {
				got = st
			}
		}
		if got != c.want {
			t.Errorf("disk %d, %d regions: lbn %d trained region %d, want %d", c.diskBlocks, c.regions, c.lbn, got, c.want)
		}
	}
}
