package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
)

// trace-v2: the compact binary columnar span codec. CSV stays the
// interchange format (human-readable, trivially diffable); trace-v2 is the
// hot-path format for daemon ingest and bulk trace files (.dct), encoding
// and decoding several times faster than CSV at a fraction of the size.
//
// Wire layout:
//
//	stream  := magic version block* end
//	magic   := "DCT2"                    (4 bytes)
//	version := 0x01                      (1 byte)
//	block   := 0x01 uvarint(len) payload (len = payload bytes)
//	end     := 0x00
//
// A block holds up to binaryBlockRequests requests, column-per-field:
// every request field (then every span field) is stored contiguously, so
// each column's values compress and decode together. Integer columns are
// varints (zigzag where negatives are legal); float columns XOR the IEEE
// bits of consecutive values and uvarint-encode the result — a delta scheme
// that is exactly lossless and collapses repeated values (a synthetic
// trace's zero durations, a request's shared span starts) to one byte;
// Retries stay varints while the FailedOver flags pack into a bitmap and
// the 2-bit subsystem/op enums pack four to a byte. Request classes are
// block-local dictionary references.
//
// The codec is lossless against the in-memory Trace in both directions:
// CSV -> binary -> CSV reproduces the canonical CSV byte for byte
// (including traces parsed from the legacy 12-column CSV layout, which
// decode with zero failure annotations like SpanReader does).

// Magic/version constants of the trace-v2 stream.
const (
	binaryMagic   = "DCT2"
	binaryVersion = 1

	// markerBlock and markerEnd delimit the block sequence.
	markerBlock = 0x01
	markerEnd   = 0x00
)

// ContentTypeV2 is the HTTP media type of a trace-v2 stream, negotiated by
// the daemon's ingest/replay endpoints (CSV remains the default).
const ContentTypeV2 = "application/x-dcmodel-trace-v2"

// Writer-side flush thresholds: a block closes when either is reached, so
// blocks stay small enough to stream but large enough to amortize the
// header and dictionary.
const (
	binaryBlockRequests = 1024
	binaryBlockSpans    = 1 << 14
)

// Reader-side hardening bounds; inputs past them are malformed, not big.
const (
	maxBinaryBlockBytes    = 1 << 26 // one block payload
	maxBinaryBlockRequests = 1 << 20
	maxBinaryClassBytes    = maxCSVFieldBytes // same class-label bound as CSV
)

// WriteBinary writes the trace as one trace-v2 stream, block by block. It
// is the binary sibling of WriteCSV: same span schema, block-columnar layout.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := blockWriters.Get().(*binaryBlockWriter)
	defer bw.release()
	out, err := bw.stream(bw.out[:0], t.Requests, w)
	bw.out = out[:0]
	return err
}

// AppendBinary appends reqs as one complete trace-v2 stream to dst and
// returns the extended slice: the bytes WriteBinary writes for a trace of
// those requests. It is the append-style sibling of AppendCSV and AppendJSON,
// for a caller that keeps the encoded body. A request the format cannot
// carry (negative retries, a subsystem or op outside its enum, an oversized
// class label) is an error, and dst comes back as it went in.
func AppendBinary(dst []byte, reqs []Request) ([]byte, error) {
	bw := blockWriters.Get().(*binaryBlockWriter)
	defer bw.release()
	out, err := bw.stream(dst, reqs, nil)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// ReadBinary reads a trace written by WriteBinary. It is the batch wrapper
// around the streaming BinarySpanReader, so both share one decoding path.
func ReadBinary(r io.Reader) (*Trace, error) {
	d := NewBinarySpanReader(r)
	t := &Trace{}
	for {
		req, err := d.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Requests = append(t.Requests, req)
	}
}

// binaryBlockWriter holds the scratch of the trace-v2 encoder: the
// block-local class dictionary, the payload of the block being assembled and,
// for WriteBinary, the bytes not yet handed to the writer. Writers are
// recycled through blockWriters, so encoding allocates nothing once the
// scratch has grown to the blocks at hand.
type binaryBlockWriter struct {
	// classIdx and classes are the block-local dictionary; classOf is the
	// dictionary index of each request of the block.
	classIdx map[string]int
	classes  []string
	classOf  []int

	// payload assembles one block; its length is known only once it is
	// complete, and the length goes first on the wire.
	payload []byte
	out     []byte
}

var blockWriters = sync.Pool{New: func() any {
	return &binaryBlockWriter{classIdx: make(map[string]int)}
}}

// release returns the writer to the pool, holding on to no class label.
func (bw *binaryBlockWriter) release() {
	clear(bw.classIdx)
	clear(bw.classes)
	blockWriters.Put(bw)
}

// stream appends the whole stream for reqs to dst: header, blocks, end
// marker. With a writer it hands dst over and starts again after every
// block (WriteBinary); without one it only appends (AppendBinary).
func (bw *binaryBlockWriter) stream(dst []byte, reqs []Request, w io.Writer) ([]byte, error) {
	flush := func() error {
		if w == nil {
			return nil
		}
		_, err := w.Write(dst)
		dst = dst[:0]
		if err != nil {
			return fmt.Errorf("trace: write binary: %w", err)
		}
		return nil
	}
	dst = append(dst, binaryMagic...)
	dst = append(dst, binaryVersion)
	for len(reqs) > 0 {
		// A block closes on the request that takes it to either threshold.
		n, spans := 0, 0
		for n < len(reqs) && n < binaryBlockRequests && spans < binaryBlockSpans {
			spans += len(reqs[n].Spans)
			n++
		}
		var err error
		if dst, err = bw.appendBlock(dst, reqs[:n], spans); err != nil {
			return dst, err
		}
		if reqs = reqs[n:]; len(reqs) > 0 {
			if err := flush(); err != nil {
				return dst, err
			}
		}
	}
	dst = append(dst, markerEnd)
	return dst, flush()
}

// uv/sv/fbits append one uvarint / zigzag varint / XOR-delta float.
func uv(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func sv(b []byte, v int64) []byte  { return binary.AppendVarint(b, v) }

func fbits(b []byte, v float64, prev *uint64) []byte {
	bits := math.Float64bits(v)
	b = binary.AppendUvarint(b, bits^*prev)
	*prev = bits
	return b
}

// appendBlock encodes reqs, which hold spans spans, as one block onto dst.
func (bw *binaryBlockWriter) appendBlock(dst []byte, reqs []Request, spans int) ([]byte, error) {
	p := bw.payload[:0]
	p = uv(p, uint64(len(reqs)))
	p = uv(p, uint64(spans))

	// Block-local class dictionary, first-seen order (deterministic).
	bw.classes = bw.classes[:0]
	bw.classOf = bw.classOf[:0]
	clear(bw.classIdx)
	for i := range reqs {
		class := reqs[i].Class
		idx, ok := 0, false
		if i > 0 && class == reqs[i-1].Class {
			idx, ok = bw.classOf[i-1], true // runs of one class are the common case
		} else {
			idx, ok = bw.classIdx[class]
		}
		if !ok {
			if len(class) > maxBinaryClassBytes {
				return dst, fmt.Errorf("trace: class label of %d bytes exceeds the %d-byte limit", len(class), maxBinaryClassBytes)
			}
			idx = len(bw.classes)
			bw.classIdx[class] = idx
			bw.classes = append(bw.classes, class)
		}
		bw.classOf = append(bw.classOf, idx)
	}
	p = uv(p, uint64(len(bw.classes)))
	for _, c := range bw.classes {
		p = uv(p, uint64(len(c)))
		p = append(p, c...)
	}

	// Request columns.
	var prevID int64
	for i := range reqs {
		p = sv(p, reqs[i].ID-prevID)
		prevID = reqs[i].ID
	}
	for _, idx := range bw.classOf {
		p = uv(p, uint64(idx))
	}
	for i := range reqs {
		p = sv(p, int64(reqs[i].Server))
	}
	var prevF uint64
	for i := range reqs {
		p = fbits(p, reqs[i].Arrival, &prevF)
	}
	for i := range reqs {
		r := &reqs[i]
		if r.Retries < 0 {
			return dst, fmt.Errorf("trace: request %d has negative retries %d", r.ID, r.Retries)
		}
		p = uv(p, uint64(r.Retries))
	}
	p = appendBitmap(p, len(reqs), func(i int) bool { return reqs[i].FailedOver })
	for i := range reqs {
		p = uv(p, uint64(len(reqs[i].Spans)))
	}

	// Span columns. The 2-bit enums are validated here: like the CSV codec
	// (whose String/Parse pair rejects them on the way back in), unknown
	// subsystems or ops cannot be represented.
	var err error
	p, err = appendPacked2(p, reqs, func(s *Span) (uint8, error) {
		if s.Subsystem < 0 || s.Subsystem >= numSubsystems {
			return 0, fmt.Errorf("trace: span has invalid subsystem %d", s.Subsystem)
		}
		return uint8(s.Subsystem), nil
	})
	if err != nil {
		return dst, err
	}
	p, err = appendPacked2(p, reqs, func(s *Span) (uint8, error) {
		if s.Op < OpNone || s.Op > OpWrite {
			return 0, fmt.Errorf("trace: span has invalid op %d", s.Op)
		}
		return uint8(s.Op), nil
	})
	if err != nil {
		return dst, err
	}
	prevF = 0
	for i := range reqs {
		for j := range reqs[i].Spans {
			p = fbits(p, reqs[i].Spans[j].Start, &prevF)
		}
	}
	prevF = 0
	for i := range reqs {
		for j := range reqs[i].Spans {
			p = fbits(p, reqs[i].Spans[j].Duration, &prevF)
		}
	}
	for i := range reqs {
		for j := range reqs[i].Spans {
			p = sv(p, reqs[i].Spans[j].Bytes)
		}
	}
	for i := range reqs {
		for j := range reqs[i].Spans {
			p = sv(p, reqs[i].Spans[j].LBN)
		}
	}
	for i := range reqs {
		for j := range reqs[i].Spans {
			p = sv(p, int64(reqs[i].Spans[j].Bank))
		}
	}
	prevF = 0
	for i := range reqs {
		for j := range reqs[i].Spans {
			p = fbits(p, reqs[i].Spans[j].Util, &prevF)
		}
	}

	bw.payload = p
	dst = uv(append(dst, markerBlock), uint64(len(p)))
	return append(dst, p...), nil
}

// appendBitmap packs n booleans LSB-first into ceil(n/8) bytes.
func appendBitmap(p []byte, n int, bit func(i int) bool) []byte {
	var cur byte
	for i := 0; i < n; i++ {
		if bit(i) {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			p = append(p, cur)
			cur = 0
		}
	}
	if n%8 != 0 {
		p = append(p, cur)
	}
	return p
}

// appendPacked2 packs one 2-bit value per span, four to a byte, LSB-first.
func appendPacked2(p []byte, reqs []Request, val func(*Span) (uint8, error)) ([]byte, error) {
	var cur byte
	var i int
	for k := range reqs {
		r := &reqs[k]
		for j := range r.Spans {
			v, err := val(&r.Spans[j])
			if err != nil {
				return nil, err
			}
			cur |= v << ((i % 4) * 2)
			if i%4 == 3 {
				p = append(p, cur)
				cur = 0
			}
			i++
		}
	}
	if i%4 != 0 {
		p = append(p, cur)
	}
	return p, nil
}

// BinarySpanReader incrementally decodes a trace-v2 stream, one block at a
// time, handing out requests with the same streaming contract as the CSV
// SpanReader: Next returns each request as soon as its block has been read,
// io.EOF after the end marker, and any defect as a sticky error. It never
// panics on malformed input and spawns no goroutines.
type BinarySpanReader struct {
	r       io.Reader
	started bool
	err     error
	head    [5]byte // the stream header, then one byte at a time

	// bufs holds the block buffers, drawn from blockBufPool at the first
	// block. A reader made per stream hands them back at the end marker or
	// its first error; one armed with Reuse (own) keeps them for good.
	bufs *blockBufs
	own  bool
	next int // the next request of bufs.pending to hand out

	// arena carves the spans; they outlive the reader (and, unless Reuse is
	// called, the buffers), since the requests handed out keep them.
	arena SpanArena
}

// blockBufs are the buffers decoding a block needs and no request it hands
// out keeps.
type blockBufs struct {
	payload []byte    // the block read buffer
	pending []Request // the decoded requests of the current block
	vals    []uint64  // one column's varints, before zigzag, delta and checks
	classes []string  // the block's class dictionary
}

var blockBufPool = sync.Pool{New: func() any { return new(blockBufs) }}

// Past these capacities a buffer is dropped rather than pooled: a writer's
// block never needs more, and one outsized stream must not pin its buffers.
const (
	maxPooledPayloadBytes = 1 << 20
	maxPooledBlockValues  = 2 * binaryBlockSpans
)

// release hands the buffers back to the pool, holding no class label and,
// after a block that failed half-way, no request.
func (b *blockBufs) release(dirty bool) {
	if dirty {
		clear(b.pending[:cap(b.pending)])
	}
	clear(b.classes[:cap(b.classes)])
	b.pending, b.classes = b.pending[:0], b.classes[:0]
	if cap(b.payload) > maxPooledPayloadBytes {
		b.payload = nil
	}
	if cap(b.pending) > binaryBlockRequests {
		b.pending = nil
	}
	if cap(b.vals) > maxPooledBlockValues {
		b.vals = nil
	}
	blockBufPool.Put(b)
}

// NewBinarySpanReader returns a streaming trace-v2 decoder reading from r.
// The header is consumed and checked on the first call to Next.
func NewBinarySpanReader(r io.Reader) *BinarySpanReader {
	return &BinarySpanReader{r: r}
}

// Reuse re-arms the reader on a new stream and keeps its block buffer,
// request slice and span arena, so a reader that decodes body after body
// settles to allocating the class labels of each block and nothing else.
// Every request handed out before the call dies with it: its spans are
// overwritten by the next stream. Only an owner that has let go of all of
// them may call Reuse; a reader whose requests are kept needs no Reuse.
func (d *BinarySpanReader) Reuse(r io.Reader) {
	d.r = r
	d.started, d.err = false, nil
	d.own = true
	if d.bufs != nil {
		d.bufs.pending = d.bufs.pending[:0]
	}
	d.next = 0
	d.arena.Reset()
}

// fail makes err sticky and, unless the reader owns its buffers, hands them
// back: nothing reads them again.
func (d *BinarySpanReader) fail(err error) (Request, error) {
	d.err = err
	if b := d.bufs; b != nil && !d.own {
		d.bufs = nil
		b.release(err != io.EOF)
	}
	return Request{}, err
}

// Next returns the next decoded request, or io.EOF when the stream ends
// cleanly (after the end marker). Errors are sticky.
func (d *BinarySpanReader) Next() (Request, error) {
	if d.err != nil {
		return Request{}, d.err
	}
	if !d.started {
		if err := d.readHeader(); err != nil {
			return d.fail(err)
		}
		d.started = true
	}
	for d.bufs == nil || d.next >= len(d.bufs.pending) {
		if err := d.readBlock(); err != nil {
			return d.fail(err)
		}
	}
	pending := d.bufs.pending
	req := pending[d.next]
	pending[d.next] = Request{} // drop the reference early
	d.next++
	return req, nil
}

func (d *BinarySpanReader) readHeader() error {
	hdr := &d.head
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return fmt.Errorf("trace: read binary header: %w", err)
	}
	if string(hdr[:4]) != binaryMagic {
		return fmt.Errorf("trace: bad magic %q, want %q", hdr[:4], binaryMagic)
	}
	if hdr[4] != binaryVersion {
		return fmt.Errorf("trace: unsupported trace-v2 version %d (want %d)", hdr[4], binaryVersion)
	}
	return nil
}

// readBlock reads and decodes the next block into d.bufs.pending, or
// returns io.EOF at the end marker.
func (d *BinarySpanReader) readBlock() error {
	one := d.head[:1]
	if _, err := io.ReadFull(d.r, one); err != nil {
		if err == io.EOF {
			return fmt.Errorf("trace: binary stream truncated before end marker: %w", io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("trace: read block marker: %w", err)
	}
	switch one[0] {
	case markerEnd:
		return io.EOF
	case markerBlock:
	default:
		return fmt.Errorf("trace: bad block marker 0x%02x", one[0])
	}
	size, err := readUvarint(d.r, one)
	if err != nil {
		return fmt.Errorf("trace: read block length: %w", err)
	}
	if size == 0 || size > maxBinaryBlockBytes {
		return fmt.Errorf("trace: block length %d outside (0, %d]", size, maxBinaryBlockBytes)
	}
	if d.bufs == nil {
		d.bufs = blockBufPool.Get().(*blockBufs)
	}
	b := d.bufs
	if cap(b.payload) < int(size) {
		b.payload = make([]byte, size)
	}
	p := b.payload[:size]
	if _, err := io.ReadFull(d.r, p); err != nil {
		return fmt.Errorf("trace: read block payload: %w", err)
	}
	return d.decodeBlock(b, p)
}

// cursor walks a block payload.
type cursor struct {
	p   []byte
	off int
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.p[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: block offset %d: bad uvarint", c.off)
	}
	c.off += n
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.p) {
		return nil, fmt.Errorf("trace: block offset %d: %d bytes past payload end", c.off, n)
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b, nil
}

// column decodes len(vals) varints at the cursor into vals, still zigzagged
// or XORed. It returns how many it decoded: all of them, or those before a
// bad varint, which it returns the error of (worded for a signed column when
// signed is set) with the cursor left at its first byte. A caller checks the
// values decoded before it reports that error, so the first defect in stream
// order is the one that wins.
//
// A one-byte value takes one compare. Further than binary.MaxVarintLen64
// bytes from the payload end, a longer one is read as one little-endian
// word: the first byte without a continuation bit ends it, and three
// mask-and-shift steps close the gaps the continuation bits leave. Only near
// the end does binary.Uvarint read byte by byte.
func (c *cursor) column(vals []uint64, signed bool) (int, error) {
	p, off := c.p, c.off
	for i := range vals {
		if off < len(p) && p[off] < 0x80 {
			vals[i] = uint64(p[off])
			off++
			continue
		}
		if len(p)-off >= binary.MaxVarintLen64 {
			w, b8 := binary.LittleEndian.Uint64(p[off:]), p[off+8]
			stop := ^w & 0x8080808080808080 // zero when all eight continue
			if stop != 0 || b8 < 0x80 {
				// Up to nine bytes: the eight of w, cut past the first
				// that ends, then the ninth (bits 56-62) when none did.
				low := stop & -stop
				ninth := uint64(int64((stop-1)&^stop) >> 63) // all ones iff stop == 0
				off += bits.TrailingZeros64(stop)/8 + 1
				vals[i] = compact7(w&(low<<1-1)) | uint64(b8)<<56&ninth
				continue
			}
			// Ten bytes: the tenth holds bit 63 and nothing else.
			if b9 := p[off+9]; b9 <= 1 {
				vals[i] = compact7(w) | uint64(b8&0x7f)<<56 | uint64(b9)<<63
				off += 10
				continue
			}
		} else if v, n := binary.Uvarint(p[off:]); n > 0 {
			vals[i] = v
			off += n
			continue
		}
		return c.bad(i, off, signed)
	}
	c.off = off
	return len(vals), nil
}

// bad leaves the cursor at the bad varint that stopped column after i values
// and returns column's answer.
func (c *cursor) bad(i, off int, signed bool) (int, error) {
	c.off = off
	if signed {
		return i, fmt.Errorf("trace: block offset %d: bad varint", off)
	}
	return i, fmt.Errorf("trace: block offset %d: bad uvarint", off)
}

// compact7 packs the 7-bit groups of up to eight little-endian varint bytes
// into one value, dropping their continuation bits.
func compact7(x uint64) uint64 {
	x = x&0x007f007f007f007f | (x&0x7f007f007f007f00)>>1
	x = x&0x00003fff00003fff | (x&0x3fff00003fff0000)>>2
	return x&0x000000000fffffff | (x&0x0fffffff00000000)>>4
}

// unzigzag undoes the zigzag step of binary.AppendVarint.
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

func (d *BinarySpanReader) decodeBlock(b *blockBufs, p []byte) error {
	c := cursor{p: p}
	nReq64, err := c.uvarint()
	if err != nil {
		return err
	}
	// Every request consumes at least one byte per request column, so the
	// payload length itself bounds a plausible count; the hard cap stops
	// one lying block from forcing a giant allocation.
	if nReq64 == 0 || nReq64 > maxBinaryBlockRequests || nReq64 > uint64(len(p)) {
		return fmt.Errorf("trace: block claims %d requests in %d payload bytes", nReq64, len(p))
	}
	nReq := int(nReq64)
	nSpan64, err := c.uvarint()
	if err != nil {
		return err
	}
	if nSpan64 > uint64(len(p)) {
		return fmt.Errorf("trace: block claims %d spans in %d payload bytes", nSpan64, len(p))
	}
	nSpan := int(nSpan64)

	// Class dictionary.
	nClass64, err := c.uvarint()
	if err != nil {
		return err
	}
	if nClass64 == 0 || nClass64 > nReq64 {
		return fmt.Errorf("trace: block claims %d classes for %d requests", nClass64, nReq64)
	}
	classes := b.classes[:0]
	for i := 0; i < int(nClass64); i++ {
		l, err := c.uvarint()
		if err != nil {
			return err
		}
		if l > maxBinaryClassBytes {
			return fmt.Errorf("trace: class label of %d bytes exceeds the %d-byte limit", l, maxBinaryClassBytes)
		}
		label, err := c.bytes(int(l))
		if err != nil {
			return err
		}
		classes = append(classes, string(label))
	}
	b.classes = classes

	// Every field of every request is written below, so the slots need no
	// clearing first.
	if cap(b.pending) < nReq {
		b.pending = make([]Request, nReq)
	}
	reqs := b.pending[:nReq]
	if cap(b.vals) < max(nReq, nSpan) {
		b.vals = make([]uint64, max(nReq, nSpan))
	}
	vals := b.vals[:nReq]

	// Request columns.
	if _, err := c.column(vals, true); err != nil {
		return err
	}
	var id int64
	for i, v := range vals {
		id += unzigzag(v)
		reqs[i].ID = id
	}
	n, bad := c.column(vals, false)
	for i, ci := range vals[:n] {
		if ci >= uint64(len(classes)) {
			return fmt.Errorf("trace: class index %d outside dictionary of %d", ci, len(classes))
		}
		reqs[i].Class = classes[ci]
	}
	if bad != nil {
		return bad
	}
	if _, err := c.column(vals, true); err != nil {
		return err
	}
	for i, v := range vals {
		reqs[i].Server = int(unzigzag(v))
	}
	if _, err := c.column(vals, false); err != nil {
		return err
	}
	var prevF uint64
	for i, v := range vals {
		prevF ^= v
		reqs[i].Arrival = math.Float64frombits(prevF)
	}
	n, bad = c.column(vals, false)
	for i, rt := range vals[:n] {
		if rt > math.MaxInt32 {
			return fmt.Errorf("trace: retries %d out of range", rt)
		}
		reqs[i].Retries = int(rt)
	}
	if bad != nil {
		return bad
	}
	fo, err := c.bytes((nReq + 7) / 8)
	if err != nil {
		return err
	}
	for i := range reqs {
		reqs[i].FailedOver = fo[i/8]&(1<<(i%8)) != 0
	}
	n, bad = c.column(vals, false)
	var total uint64
	for _, cnt := range vals[:n] {
		if cnt > maxSpansPerRequest {
			return fmt.Errorf("trace: request exceeds %d spans", maxSpansPerRequest)
		}
		if total += cnt; total > nSpan64 {
			return fmt.Errorf("trace: span counts exceed the block's %d spans", nSpan)
		}
	}
	if bad != nil {
		return bad
	}
	if total != nSpan64 {
		return fmt.Errorf("trace: span counts sum to %d, block claims %d", total, nSpan)
	}

	// The block's spans are one run of the arena; each request's slice is
	// cut from it, capacity capped like a Take of its own. The span columns
	// below walk the run by its index k.
	d.arena.Reserve(nSpan)
	spans := d.arena.Take(nSpan)[:nSpan]
	k := 0
	for i, cnt := range vals {
		if cnt == 0 {
			reqs[i].Spans = nil
			continue
		}
		end := k + int(cnt)
		reqs[i].Spans = spans[k:end:end]
		k = end
	}

	// Span columns.
	subs, err := c.bytes((nSpan + 3) / 4)
	if err != nil {
		return err
	}
	ops, err := c.bytes((nSpan + 3) / 4)
	if err != nil {
		return err
	}
	for k := range spans {
		shift := uint(k%4) * 2
		op := Op(ops[k/4] >> shift & 3)
		if op > OpWrite {
			return fmt.Errorf("trace: span %d has invalid op %d", k, op)
		}
		spans[k].Subsystem = Subsystem(subs[k/4] >> shift & 3)
		spans[k].Op = op
	}
	vals = b.vals[:nSpan]
	if _, err := c.column(vals, false); err != nil {
		return err
	}
	prevF = 0
	for k, v := range vals {
		prevF ^= v
		spans[k].Start = math.Float64frombits(prevF)
	}
	if _, err := c.column(vals, false); err != nil {
		return err
	}
	prevF = 0
	for k, v := range vals {
		prevF ^= v
		spans[k].Duration = math.Float64frombits(prevF)
	}
	if _, err := c.column(vals, true); err != nil {
		return err
	}
	for k, v := range vals {
		spans[k].Bytes = unzigzag(v)
	}
	if _, err := c.column(vals, true); err != nil {
		return err
	}
	for k, v := range vals {
		spans[k].LBN = unzigzag(v)
	}
	if _, err := c.column(vals, true); err != nil {
		return err
	}
	for k, v := range vals {
		spans[k].Bank = int(unzigzag(v))
	}
	if _, err := c.column(vals, false); err != nil {
		return err
	}
	prevF = 0
	for k, v := range vals {
		prevF ^= v
		spans[k].Util = math.Float64frombits(prevF)
	}
	if c.off != len(p) {
		return fmt.Errorf("trace: %d trailing bytes in block", len(p)-c.off)
	}
	b.pending = reqs
	d.next = 0
	return nil
}

// readUvarint reads one uvarint directly from r, a byte at a time through
// b (used only for the block length prefix; everything else decodes from the
// in-memory payload).
func readUvarint(r io.Reader, b []byte) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if _, err := io.ReadFull(r, b[:1]); err != nil {
			return 0, err
		}
		if b[0] < 0x80 {
			if i == binary.MaxVarintLen64-1 && b[0] > 1 {
				return 0, fmt.Errorf("uvarint overflows 64 bits")
			}
			return x | uint64(b[0])<<s, nil
		}
		x |= uint64(b[0]&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("uvarint overflows 64 bits")
}
