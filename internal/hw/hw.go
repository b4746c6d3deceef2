// Package hw provides the parametric server-hardware models that both the
// GFS application simulator and the replay engine are layered on: a disk
// with positional seek state, a banked DRAM with row buffers, a CPU with a
// cycles-per-byte cost model, and a network link. A Host adds a FIFO queue
// per subsystem, and Host.Exec is the one request executor both engines
// time spans with: it charges each span what its features cost on the
// models, so the two engines cannot drift apart.
//
// The models are deterministic given their inputs and internal state;
// workload-level variability comes from the request streams driving them.
// Sharing one hardware substrate between trace generation and replay is
// what lets the validation experiments compare original and synthetic
// workloads on an equal platform (the paper measures both on the same
// system).
package hw

import (
	"fmt"
	"math"
)

// Disk models a mechanical disk: distance-dependent seek, rotational
// latency, and a sequential transfer rate. The head position persists
// across accesses, so spatial locality in the LBN stream directly shows up
// in access times — the property the storage Markov model must reproduce.
type Disk struct {
	// NumBlocks is the LBN address-space size.
	NumBlocks int64
	// BlockSize is the bytes per LBN.
	BlockSize int64
	// MinSeek is the track-to-track seek time (seconds).
	MinSeek float64
	// MaxSeek is the full-stroke seek time (seconds).
	MaxSeek float64
	// RotationalLatency is the average rotational delay (seconds).
	RotationalLatency float64
	// TransferRate is the sequential throughput in bytes/second.
	TransferRate float64

	head int64
}

// DefaultDisk returns a 7200rpm-class disk: 0.5-8 ms seek, 4.17 ms average
// rotation, 120 MB/s transfer, 512 GiB of 4 KiB blocks.
func DefaultDisk() *Disk {
	return &Disk{
		NumBlocks:         128 << 20, // 128 Mi blocks x 4 KiB = 512 GiB
		BlockSize:         4096,
		MinSeek:           0.0005,
		MaxSeek:           0.008,
		RotationalLatency: 0.00417,
		TransferRate:      120e6,
	}
}

// Validate reports a configuration error, if any.
func (d *Disk) Validate() error {
	switch {
	case d.NumBlocks <= 0:
		return fmt.Errorf("hw: disk needs positive NumBlocks, got %d", d.NumBlocks)
	case d.BlockSize <= 0:
		return fmt.Errorf("hw: disk needs positive BlockSize, got %d", d.BlockSize)
	case d.MinSeek < 0 || d.MaxSeek < d.MinSeek:
		return fmt.Errorf("hw: disk seek range [%g, %g] invalid", d.MinSeek, d.MaxSeek)
	case d.RotationalLatency < 0:
		return fmt.Errorf("hw: disk rotational latency %g negative", d.RotationalLatency)
	case d.TransferRate <= 0:
		return fmt.Errorf("hw: disk needs positive TransferRate, got %g", d.TransferRate)
	}
	return nil
}

// SeekTime returns the head-movement time from the current position to lbn
// using the standard square-root seek curve, without moving the head.
func (d *Disk) SeekTime(lbn int64) float64 {
	dist := lbn - d.head
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	frac := float64(dist) / float64(d.NumBlocks)
	return d.MinSeek + (d.MaxSeek-d.MinSeek)*math.Sqrt(frac)
}

// Access performs an I/O of size bytes starting at lbn and returns its
// service time. The head moves to the end of the accessed range.
// Sequential accesses (lbn == current head) skip seek and rotation.
func (d *Disk) Access(lbn, bytes int64) float64 {
	if lbn < 0 {
		lbn = 0
	}
	if lbn >= d.NumBlocks {
		lbn = d.NumBlocks - 1
	}
	var t float64
	if lbn != d.head {
		t += d.SeekTime(lbn) + d.RotationalLatency
	}
	if bytes < 0 {
		bytes = 0
	}
	t += float64(bytes) / d.TransferRate
	blocks := (bytes + d.BlockSize - 1) / d.BlockSize
	d.head = lbn + blocks
	if d.head >= d.NumBlocks {
		d.head = d.NumBlocks - 1
	}
	return t
}

// Head returns the current head position (for tests and introspection).
func (d *Disk) Head() int64 { return d.head }

// Memory models banked DRAM with per-bank open rows: an access to the open
// row of a bank is a row hit, anything else pays the row-miss penalty.
type Memory struct {
	// Banks is the number of DRAM banks.
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int64
	// HitLatency and MissLatency are per-access latencies (seconds).
	HitLatency, MissLatency float64
	// Bandwidth is the transfer throughput in bytes/second.
	Bandwidth float64

	openRows []int64
}

// DefaultMemory returns a DDR3-class memory: 8 banks, 8 KiB rows, 25/60 ns
// hit/miss latency, 12.8 GB/s.
func DefaultMemory() *Memory {
	return &Memory{
		Banks:       8,
		RowBytes:    8192,
		HitLatency:  25e-9,
		MissLatency: 60e-9,
		Bandwidth:   12.8e9,
	}
}

// Validate reports a configuration error, if any.
func (m *Memory) Validate() error {
	switch {
	case m.Banks <= 0:
		return fmt.Errorf("hw: memory needs positive Banks, got %d", m.Banks)
	case m.RowBytes <= 0:
		return fmt.Errorf("hw: memory needs positive RowBytes, got %d", m.RowBytes)
	case m.HitLatency < 0 || m.MissLatency < m.HitLatency:
		return fmt.Errorf("hw: memory latencies [%g, %g] invalid", m.HitLatency, m.MissLatency)
	case m.Bandwidth <= 0:
		return fmt.Errorf("hw: memory needs positive Bandwidth, got %g", m.Bandwidth)
	}
	return nil
}

// Access reads or writes bytes at the given bank and row, returning the
// access time. The bank's open row is updated.
func (m *Memory) Access(bank int, row int64, bytes int64) float64 {
	if m.openRows == nil {
		m.openRows = make([]int64, m.Banks)
		for i := range m.openRows {
			m.openRows[i] = -1
		}
	}
	if bank < 0 {
		bank = 0
	}
	bank %= m.Banks
	lat := m.MissLatency
	if m.openRows[bank] == row {
		lat = m.HitLatency
	}
	m.openRows[bank] = row
	if bytes < 0 {
		bytes = 0
	}
	return lat + float64(bytes)/m.Bandwidth
}

// CPU models a core with a fixed frequency and a cycles cost model: each
// request phase costs a base cycle count plus cycles per byte processed.
type CPU struct {
	// Frequency is the clock in Hz.
	Frequency float64
	// BaseCycles is the fixed per-phase overhead.
	BaseCycles float64
	// CyclesPerByte is the data-dependent processing cost.
	CyclesPerByte float64
}

// DefaultCPU returns a 2.4 GHz core with 50k base cycles and 1 cycle/byte
// (checksum/copy-class processing).
func DefaultCPU() *CPU {
	return &CPU{Frequency: 2.4e9, BaseCycles: 50e3, CyclesPerByte: 1}
}

// Validate reports a configuration error, if any.
func (c *CPU) Validate() error {
	switch {
	case c.Frequency <= 0:
		return fmt.Errorf("hw: cpu needs positive Frequency, got %g", c.Frequency)
	case c.BaseCycles < 0 || c.CyclesPerByte < 0:
		return fmt.Errorf("hw: cpu cycle costs must be non-negative")
	}
	return nil
}

// Time returns the service time of a phase processing the given bytes.
func (c *CPU) Time(bytes int64) float64 {
	if bytes < 0 {
		bytes = 0
	}
	return (c.BaseCycles + c.CyclesPerByte*float64(bytes)) / c.Frequency
}

// Network models a full-duplex link with a fixed one-way latency and a
// bandwidth; transfers are store-and-forward.
type Network struct {
	// Latency is the one-way propagation + protocol latency (seconds).
	Latency float64
	// Bandwidth is the link throughput in bytes/second.
	Bandwidth float64
}

// DefaultNetwork returns a 1 GbE-class datacenter link: 100 us latency,
// 125 MB/s.
func DefaultNetwork() *Network {
	return &Network{Latency: 100e-6, Bandwidth: 125e6}
}

// Validate reports a configuration error, if any.
func (n *Network) Validate() error {
	switch {
	case n.Latency < 0:
		return fmt.Errorf("hw: network latency %g negative", n.Latency)
	case n.Bandwidth <= 0:
		return fmt.Errorf("hw: network needs positive Bandwidth, got %g", n.Bandwidth)
	}
	return nil
}

// TransferTime returns the time to move bytes across the link.
func (n *Network) TransferTime(bytes int64) float64 {
	if bytes < 0 {
		bytes = 0
	}
	return n.Latency + float64(bytes)/n.Bandwidth
}

// Server bundles the four subsystem models of one machine.
type Server struct {
	Disk *Disk
	Mem  *Memory
	CPU  *CPU
	Net  *Network
}

// DefaultServer returns a server with all default subsystem models.
func DefaultServer() *Server {
	return &Server{
		Disk: DefaultDisk(),
		Mem:  DefaultMemory(),
		CPU:  DefaultCPU(),
		Net:  DefaultNetwork(),
	}
}

// Validate validates every subsystem model.
func (s *Server) Validate() error {
	if s.Disk == nil || s.Mem == nil || s.CPU == nil || s.Net == nil {
		return fmt.Errorf("hw: server needs all four subsystem models")
	}
	if err := s.Disk.Validate(); err != nil {
		return err
	}
	if err := s.Mem.Validate(); err != nil {
		return err
	}
	if err := s.CPU.Validate(); err != nil {
		return err
	}
	return s.Net.Validate()
}
