package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"dcmodel/internal/errs"
	"dcmodel/internal/kooza"
	"dcmodel/internal/markov"
	"dcmodel/internal/trace"
)

// The cluster's global model is deliberately restricted to the family of
// models whose sufficient statistics merge EXACTLY: integer counts (class
// mix, histogram buckets, Markov transition counts) and order-independent
// reductions (max over arrival times). Integer addition in float64/int64
// is exact and commutative, so however a trace is partitioned across
// workers, and in whatever order the partial models are merged, the
// merged model is bit-for-bit identical to one model fed the whole trace
// — the determinism contract the acceptance tests pin byte-for-byte.
// Anything that would break exactness (float sums, clustering, quantile
// sketches) is excluded by construction; the per-shard serve daemons keep
// owning the richer KOOZA/in-breadth/in-depth models.

// Histogram geometry of the mergeable model. All histograms are
// fixed-bucket integer counts, so they merge by element-wise addition.
const (
	numSubsystems = 4
	// maxPhases caps the request phase-length histogram; longer requests
	// count in the top bucket.
	maxPhases = 32
	// sizeBuckets is the log2 bucket count for span byte sizes: bucket 0
	// holds zero-byte spans, bucket k holds [2^(k-1), 2^k).
	sizeBuckets = 48
	// durBuckets is the log2 bucket count for span durations in
	// nanoseconds (bucket 47 reaches ~2^46 ns, about 20 hours).
	durBuckets = 48
	// utilBuckets divides CPU utilization [0,1] evenly.
	utilBuckets = 16
	// bankBuckets counts DRAM banks; larger bank IDs clamp to the top.
	bankBuckets = 64
	// opKinds covers trace.OpNone/OpRead/OpWrite.
	opKinds = 3
)

// ModelConfig fixes the quantization every shard must share: merging is
// only exact when all shards bucket identically.
type ModelConfig struct {
	// StorageRegions is the storage Markov state count.
	StorageRegions int `json:"storage_regions"`
	// DiskBlocks is the fixed LBN address-space size mapped onto the
	// regions. Fixed (not inferred per shard) for the same reason the
	// serving daemon fixes it: every shard must share one quantization.
	DiskBlocks int64 `json:"disk_blocks"`
	// Smoothing is the Laplace smoothing applied when counts are
	// normalized into chains.
	Smoothing float64 `json:"smoothing"`
}

// DefaultModelConfig matches the serving daemon's defaults.
func DefaultModelConfig() ModelConfig {
	return ModelConfig{StorageRegions: 32, DiskBlocks: 128 << 20, Smoothing: 0.01}
}

// withDefaults fills zero fields.
func (c ModelConfig) withDefaults() ModelConfig {
	d := DefaultModelConfig()
	if c.StorageRegions <= 0 {
		c.StorageRegions = d.StorageRegions
	}
	if c.DiskBlocks <= 0 {
		c.DiskBlocks = d.DiskBlocks
	}
	if c.Smoothing <= 0 {
		c.Smoothing = d.Smoothing
	}
	return c
}

// Model is the exactly-mergeable workload model trained by cluster
// workers and assembled by the coordinator. It is not safe for concurrent
// use; the worker guards its shard with a lock, and installed (replicated)
// models are treated as immutable.
type Model struct {
	cfg     ModelConfig
	regions kooza.Regions

	requests   int64
	maxArrival float64
	classes    map[string]int64

	// phase chains the subsystem sequence of a request (KOOZA's
	// time-dependency structure); storage chains the LBN region walk.
	phase   *markov.Accumulator
	storage *markov.Accumulator

	phaseLen [maxPhases + 1]int64
	sizes    [numSubsystems][sizeBuckets]int64
	durs     [numSubsystems][durBuckets]int64
	ops      [numSubsystems][opKinds]int64
	util     [utilBuckets]int64
	banks    [bankBuckets]int64
}

// NewModel returns an empty model under cfg (zero fields defaulted).
func NewModel(cfg ModelConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.StorageRegions < 2 {
		return nil, fmt.Errorf("cluster: need >= 2 storage regions, got %d: %w", cfg.StorageRegions, errs.ErrBadConfig)
	}
	phase, err := markov.NewAccumulator(numSubsystems, cfg.Smoothing)
	if err != nil {
		return nil, err
	}
	storage, err := markov.NewAccumulator(cfg.StorageRegions, cfg.Smoothing)
	if err != nil {
		return nil, err
	}
	return &Model{
		cfg:     cfg,
		regions: kooza.NewRegions(cfg.DiskBlocks, cfg.StorageRegions),
		classes: make(map[string]int64),
		phase:   phase,
		storage: storage,
	}, nil
}

// Requests returns how many requests the model has absorbed.
func (m *Model) Requests() int64 { return m.requests }

// log2Bucket maps a non-negative value into a log2 histogram: 0 for v<=0,
// else 1+floor(log2(v)), clamped to buckets-1.
func log2Bucket(v int64, buckets int) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // == 1+floor(log2 v)
	if b >= buckets {
		b = buckets - 1
	}
	return b
}

// Observe folds one request into the model's counts.
func (m *Model) Observe(req trace.Request) {
	m.requests++
	m.classes[req.Class]++
	if req.Arrival > m.maxArrival {
		m.maxArrival = req.Arrival
	}
	np := len(req.Spans)
	if np > maxPhases {
		np = maxPhases
	}
	m.phaseLen[np]++

	var phaseSeq [maxPhases]int
	var storageSeq [maxPhases]int
	pn, sn := 0, 0
	for _, sp := range req.Spans {
		sub := int(sp.Subsystem)
		if sub < 0 || sub >= numSubsystems {
			sub = 0
		}
		if pn < maxPhases {
			phaseSeq[pn] = sub
			pn++
		}
		m.sizes[sub][log2Bucket(sp.Bytes, sizeBuckets)]++
		ns := int64(sp.Duration * 1e9)
		m.durs[sub][log2Bucket(ns, durBuckets)]++
		op := int(sp.Op)
		if op < 0 || op >= opKinds {
			op = 0
		}
		m.ops[sub][op]++
		switch sp.Subsystem {
		case trace.CPU:
			u := sp.Util
			if u < 0 {
				u = 0
			}
			b := int(u * utilBuckets)
			if b >= utilBuckets {
				b = utilBuckets - 1
			}
			m.util[b]++
		case trace.Memory:
			b := sp.Bank
			if b < 0 {
				b = 0
			}
			if b >= bankBuckets {
				b = bankBuckets - 1
			}
			m.banks[b]++
		case trace.Storage:
			if sn < maxPhases {
				storageSeq[sn] = m.regions.Of(sp.LBN)
				sn++
			}
		}
	}
	if pn > 0 {
		// States are in range by construction, so Observe cannot fail.
		_ = m.phase.Observe(phaseSeq[:pn])
	}
	if sn > 0 {
		_ = m.storage.Observe(storageSeq[:sn])
	}
}

// ObserveTrace folds a whole trace into the model.
func (m *Model) ObserveTrace(tr *trace.Trace) {
	for i := range tr.Requests {
		m.Observe(tr.Requests[i])
	}
}

// Merge folds other's counts into m. Both models must share one
// quantization config; merging is element-wise addition of counts plus a
// max over arrival horizons, so it is exact and order-independent (see
// the package comment and markov.Accumulator.Merge).
func (m *Model) Merge(other *Model) error {
	if other == nil {
		return nil
	}
	if other.cfg != m.cfg {
		return fmt.Errorf("cluster: merge config mismatch %+v vs %+v: %w", m.cfg, other.cfg, errs.ErrBadConfig)
	}
	if err := m.phase.Merge(other.phase); err != nil {
		return err
	}
	if err := m.storage.Merge(other.storage); err != nil {
		return err
	}
	m.requests += other.requests
	if other.maxArrival > m.maxArrival {
		m.maxArrival = other.maxArrival
	}
	for class, n := range other.classes {
		m.classes[class] += n
	}
	for i := range m.phaseLen {
		m.phaseLen[i] += other.phaseLen[i]
	}
	for s := 0; s < numSubsystems; s++ {
		for i := range m.sizes[s] {
			m.sizes[s][i] += other.sizes[s][i]
		}
		for i := range m.durs[s] {
			m.durs[s][i] += other.durs[s][i]
		}
		for i := range m.ops[s] {
			m.ops[s][i] += other.ops[s][i]
		}
	}
	for i := range m.util {
		m.util[i] += other.util[i]
	}
	for i := range m.banks {
		m.banks[i] += other.banks[i]
	}
	return nil
}

// Model wire format.
const (
	modelMagic   = "DCLM"
	modelVersion = 1
	// maxModelClasses bounds the class dictionary accepted when
	// unmarshaling, and maxClassNameBytes one class label.
	maxModelClasses   = 1 << 16
	maxClassNameBytes = 1 << 10
	// maxAccBlobBytes bounds one embedded accumulator blob.
	maxAccBlobBytes = 64 << 20
)

// MarshalBinary serializes the model deterministically: classes are
// emitted in sorted order and every count in a fixed little-endian
// layout, so byte-identity of two marshaled models is exactly
// count-identity — the form the cluster's determinism contract is proven
// in.
func (m *Model) MarshalBinary() ([]byte, error) {
	var buf []byte
	buf = append(buf, modelMagic...)
	buf = append(buf, modelVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.cfg.StorageRegions))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.cfg.DiskBlocks))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.cfg.Smoothing))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.requests))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.maxArrival))

	classes := make([]string, 0, len(m.classes))
	for c := range m.classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(classes)))
	for _, c := range classes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c)))
		buf = append(buf, c...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.classes[c]))
	}

	for _, acc := range []*markov.Accumulator{m.phase, m.storage} {
		blob, err := acc.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}

	appendCounts := func(counts []int64) {
		for _, v := range counts {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	appendCounts(m.phaseLen[:])
	for s := 0; s < numSubsystems; s++ {
		appendCounts(m.sizes[s][:])
		appendCounts(m.durs[s][:])
		appendCounts(m.ops[s][:])
	}
	appendCounts(m.util[:])
	appendCounts(m.banks[:])
	return buf, nil
}

// UnmarshalModel reconstructs a Model from MarshalBinary output. Defects
// are errors, never panics.
func UnmarshalModel(data []byte) (*Model, error) {
	r := byteReader{data: data}
	magic, err := r.bytes(len(modelMagic))
	if err != nil || string(magic) != modelMagic {
		return nil, fmt.Errorf("cluster: bad model magic")
	}
	ver, err := r.byte()
	if err != nil || ver != modelVersion {
		return nil, fmt.Errorf("cluster: unsupported model version")
	}
	regions, err := r.u32()
	if err != nil {
		return nil, err
	}
	diskBlocks, err := r.u64()
	if err != nil {
		return nil, err
	}
	smoothBits, err := r.u64()
	if err != nil {
		return nil, err
	}
	cfg := ModelConfig{
		StorageRegions: int(regions),
		DiskBlocks:     int64(diskBlocks),
		Smoothing:      math.Float64frombits(smoothBits),
	}
	if cfg.StorageRegions < 2 || cfg.StorageRegions > 1<<12 || cfg.DiskBlocks < 1 ||
		!(cfg.Smoothing >= 0) || math.IsInf(cfg.Smoothing, 0) {
		return nil, fmt.Errorf("cluster: model config %+v invalid: %w", cfg, errs.ErrBadConfig)
	}
	m, err := NewModel(cfg)
	if err != nil {
		return nil, err
	}
	reqs, err := r.u64()
	if err != nil {
		return nil, err
	}
	m.requests = int64(reqs)
	if m.requests < 0 {
		return nil, fmt.Errorf("cluster: model request count overflows")
	}
	arrBits, err := r.u64()
	if err != nil {
		return nil, err
	}
	m.maxArrival = math.Float64frombits(arrBits)
	if math.IsNaN(m.maxArrival) || m.maxArrival < 0 {
		return nil, fmt.Errorf("cluster: model arrival horizon %g invalid", m.maxArrival)
	}

	nClasses, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nClasses > maxModelClasses {
		return nil, fmt.Errorf("cluster: model has %d classes, max %d", nClasses, maxModelClasses)
	}
	for i := uint32(0); i < nClasses; i++ {
		nameLen, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nameLen > maxClassNameBytes {
			return nil, fmt.Errorf("cluster: class name of %d bytes exceeds the %d-byte limit", nameLen, maxClassNameBytes)
		}
		name, err := r.bytes(int(nameLen))
		if err != nil {
			return nil, err
		}
		count, err := r.u64()
		if err != nil {
			return nil, err
		}
		m.classes[string(name)] = int64(count)
	}

	for _, dst := range []**markov.Accumulator{&m.phase, &m.storage} {
		blobLen, err := r.u32()
		if err != nil {
			return nil, err
		}
		if blobLen > maxAccBlobBytes {
			return nil, fmt.Errorf("cluster: accumulator blob of %d bytes exceeds the limit", blobLen)
		}
		blob, err := r.bytes(int(blobLen))
		if err != nil {
			return nil, err
		}
		if *dst, err = markov.UnmarshalAccumulator(blob); err != nil {
			return nil, err
		}
	}
	if m.phase.N() != numSubsystems || m.storage.N() != cfg.StorageRegions {
		return nil, fmt.Errorf("cluster: embedded accumulator dimensions disagree with the model config")
	}

	readCounts := func(counts []int64) error {
		for i := range counts {
			v, err := r.u64()
			if err != nil {
				return err
			}
			counts[i] = int64(v)
			if counts[i] < 0 {
				return fmt.Errorf("cluster: histogram count overflows")
			}
		}
		return nil
	}
	if err := readCounts(m.phaseLen[:]); err != nil {
		return nil, err
	}
	for s := 0; s < numSubsystems; s++ {
		if err := readCounts(m.sizes[s][:]); err != nil {
			return nil, err
		}
		if err := readCounts(m.durs[s][:]); err != nil {
			return nil, err
		}
		if err := readCounts(m.ops[s][:]); err != nil {
			return nil, err
		}
	}
	if err := readCounts(m.util[:]); err != nil {
		return nil, err
	}
	if err := readCounts(m.banks[:]); err != nil {
		return nil, err
	}
	if !r.done() {
		return nil, fmt.Errorf("cluster: %d trailing bytes after model", r.remaining())
	}
	return m, nil
}

// byteReader is a bounds-checked cursor over a model blob.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, fmt.Errorf("cluster: model blob truncated at byte %d", r.off)
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *byteReader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *byteReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *byteReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *byteReader) done() bool     { return r.off == len(r.data) }
func (r *byteReader) remaining() int { return len(r.data) - r.off }
