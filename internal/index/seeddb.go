package index

// This file implements seeddb, the persistent on-disk form of a built
// Index together with its bank: step 1 of the paper's algorithm is pure
// preprocessing of the subject bank, so its product is written once
// (seeddb build, the service's warm path) and loaded everywhere else —
// a cold daemon, a cluster volume worker — instead of being recomputed.
//
// Layout (all integers native-endian, guarded by a byte-order sentinel
// so a foreign-endian file is rejected, never misread):
//
//	preamble  magic "SEEDDB01", version, byte-order sentinel,
//	          meta length + CRC32-C
//	meta      fingerprint stamp, seed model (name + per-position
//	          partitions), N, bank (name, ids, sequence lengths),
//	          entry count, key space, window length, and one
//	          (offset, size, CRC32-C) record per data section
//	data      bucketStart, entries, neighborhoods, bank residues —
//	          each 8-byte aligned so the loader can alias them in
//	          place from a memory mapping
//
// Open maps the file and aliases every section directly out of the
// mapping: the neighborhood array — by far the largest section — is
// never materialized a second time, and processes opening the same
// file share its pages; without mmap, Open reads the file and decodes
// the buffer the same way. Both paths recompute the bank fingerprint
// and compare it to the stamp, so a loaded index is known to describe
// exactly the bank it claims; the big-array CRCs are
// checked by Verify (seeddb verify, CI) rather than on every open, to
// keep the load path from paging in sections the search may never
// touch.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"unsafe"

	"seedblast/internal/bank"
	"seedblast/internal/seed"
)

// seeddb file constants.
const (
	dbMagic    = "SEEDDB01"
	dbVersion  = 1
	dbSentinel = 0x01020304 // byte-order probe: reads back swapped on a foreign-endian host
	// dbPreambleLen is the fixed preamble: magic[8] + version u32 +
	// sentinel u32 + metaLen u64 + metaCRC u32 + reserved u32.
	dbPreambleLen = 8 + 4 + 4 + 8 + 4 + 4
	dbAlign       = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// dbSection locates one data section inside the file.
type dbSection struct {
	off, size uint64
	crc       uint32
}

// dbMeta is the decoded meta block.
type dbMeta struct {
	fingerprint string
	modelName   string
	positions   []seed.Partition
	n           int
	bankName    string
	ids         []string
	seqLens     []uint64
	numEntries  uint64
	keySpace    uint64
	subLen      uint64
	// section order: bucketStart, entries, neighborhoods, residues.
	sections [4]dbSection
}

// DBInfo summarises a seeddb file without loading its data sections —
// the cheap header read behind `seeddb inspect` and the comparison
// service's fingerprint→path registry.
type DBInfo struct {
	Path        string
	Version     int
	Fingerprint string
	ModelName   string
	Width       int
	KeySpace    int
	N           int
	SubLen      int
	BankName    string
	Sequences   int
	Residues    int64
	Entries     int64
	FileSize    int64
}

// WriteTo serialises the index and its bank in the seeddb format. It
// implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	model, ok := ix.model.(*seed.SubsetModel)
	if !ok {
		return 0, fmt.Errorf("index: seeddb can only persist subset seed models, not %T", ix.model)
	}
	b := ix.bank

	// Data section byte views (entries reinterpreted in place; the
	// format is declared native-endian, so this is the on-disk form).
	bucketBytes := u32Bytes(ix.bucketStart)
	entryBytes := entryBytes(ix.entries)
	var residues bytes.Buffer
	for i := 0; i < b.Len(); i++ {
		residues.Write(b.Seq(i))
	}

	// Compute section offsets: preamble + meta, then each section
	// aligned to dbAlign.
	meta := dbMeta{
		fingerprint: ix.Fingerprint(),
		modelName:   model.Name(),
		positions:   model.Positions(),
		n:           ix.n,
		bankName:    b.Name(),
		numEntries:  uint64(len(ix.entries)),
		keySpace:    uint64(model.KeySpace()),
		subLen:      uint64(ix.subLen),
	}
	for i := 0; i < b.Len(); i++ {
		meta.ids = append(meta.ids, b.ID(i))
		meta.seqLens = append(meta.seqLens, uint64(len(b.Seq(i))))
	}
	data := [4][]byte{bucketBytes, entryBytes, ix.neighborhoods, residues.Bytes()}

	// The meta block's own size shifts section offsets, but the size of
	// the encoded meta does not depend on the offset values (fixed u64),
	// so one sizing pass with zero offsets settles the layout.
	sizing := encodeMeta(&meta)
	off := align(uint64(dbPreambleLen)+uint64(len(sizing)), dbAlign)
	for i, d := range data {
		meta.sections[i] = dbSection{off: off, size: uint64(len(d)), crc: crc32.Checksum(d, castagnoli)}
		off = align(off+uint64(len(d)), dbAlign)
	}
	metaBytes := encodeMeta(&meta)
	if len(metaBytes) != len(sizing) {
		return 0, fmt.Errorf("index: internal error: meta sizing pass diverged")
	}

	var n int64
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	// Preamble.
	pre := make([]byte, dbPreambleLen)
	copy(pre, dbMagic)
	binary.NativeEndian.PutUint32(pre[8:], dbVersion)
	binary.NativeEndian.PutUint32(pre[12:], dbSentinel)
	binary.NativeEndian.PutUint64(pre[16:], uint64(len(metaBytes)))
	binary.NativeEndian.PutUint32(pre[24:], crc32.Checksum(metaBytes, castagnoli))
	if err := count(w.Write(pre)); err != nil {
		return n, err
	}
	if err := count(w.Write(metaBytes)); err != nil {
		return n, err
	}
	pos := uint64(dbPreambleLen) + uint64(len(metaBytes))
	var padBuf [dbAlign]byte
	for i, d := range data {
		if pad := meta.sections[i].off - pos; pad > 0 {
			if err := count(w.Write(padBuf[:pad])); err != nil {
				return n, err
			}
			pos += pad
		}
		if err := count(w.Write(d)); err != nil {
			return n, err
		}
		pos += uint64(len(d))
	}
	return n, nil
}

// WriteFile writes the index to path atomically (temp file + rename),
// so a crashed or concurrent writer never leaves a half-written DB
// where a loader could find it.
func (ix *Index) WriteFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".seeddb-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := ix.WriteTo(tmp); err != nil {
		// The write already failed; that error is the one to report.
		// The deferred remove reclaims the temp file either way.
		_ = tmp.Close()
		return fmt.Errorf("index: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Open maps the seeddb file at path and returns the index it holds.
// Every data section — including the neighborhood array and the bank's
// residues — aliases the mapping: nothing is copied, pages are shared
// with other processes mapping the same file, and the kernel pages
// sections in as the search touches them. The returned index (and its
// Bank) must not be used after Close, which releases the mapping.
//
// Open verifies the preamble, the meta checksum, every structural
// invariant the engine relies on (monotone bucket table, in-range
// entries), and recomputes the bank fingerprint against the stamp. The
// large-array CRCs are checked by Verify, not here.
func Open(path string) (*Index, error) {
	data, closer, err := mmapFile(path)
	if err != nil {
		return nil, fmt.Errorf("index: opening %s: %w", path, err)
	}
	ix, err := load(data)
	if err != nil {
		closer()
		return nil, fmt.Errorf("index: %s: %w", path, err)
	}
	// Close is the contract, but long-lived daemons churn loaded
	// indexes through caches that drop them without closing; a GC
	// cleanup unmaps abandoned mappings so eviction churn cannot
	// accumulate address space. The releaser's once makes explicit
	// Close and the cleanup commute.
	rel := &releaser{f: closer}
	ix.close = rel.release
	runtime.AddCleanup(ix, func(r *releaser) { r.release() }, rel)
	return ix, nil
}

// releaser runs a release function exactly once, from whichever of
// Close and the GC cleanup gets there first.
type releaser struct {
	once sync.Once
	f    func() error
}

func (r *releaser) release() error {
	var err error
	r.once.Do(func() { err = r.f() })
	return err
}

// alignedImage returns data, copied when its base pointer is not
// aligned for the u32/Entry views the decoder takes. Mappings and
// large heap buffers are always aligned; tiny fuzz inputs may not be.
func alignedImage(data []byte) []byte {
	if len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%dbAlign == 0 {
		return data
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp
}

// Close releases the resources behind a loaded index (the file mapping
// for Open). It is a no-op for built indexes. The index, its bank and
// every slice returned by Bucket are invalid afterwards.
func (ix *Index) Close() error {
	if ix.close == nil {
		return nil
	}
	c := ix.close
	ix.close = nil
	return c()
}

// load decodes a seeddb image whose base is dbAlign-aligned.
func load(data []byte) (*Index, error) {
	meta, err := decodePreambleAndMeta(data)
	if err != nil {
		return nil, err
	}
	model, err := reconstructModel(meta)
	if err != nil {
		return nil, err
	}

	// Shape checks: the declared geometry must be self-consistent and
	// the sections must carry exactly the bytes it implies.
	w := uint64(model.Width())
	if meta.subLen != w+2*uint64(meta.n) {
		return nil, fmt.Errorf("seeddb: window length %d does not match width %d + 2·N %d", meta.subLen, w, meta.n)
	}
	var totalResidues uint64
	for _, l := range meta.seqLens {
		if l > math.MaxUint64-totalResidues {
			return nil, fmt.Errorf("seeddb: sequence lengths overflow")
		}
		totalResidues += l
	}
	want := [4]uint64{
		(meta.keySpace + 1) * 4,
		meta.numEntries * 8,
		meta.numEntries * meta.subLen,
		totalResidues,
	}
	if meta.numEntries != 0 && (want[1]/meta.numEntries != 8 || want[2]/meta.numEntries != meta.subLen) {
		return nil, fmt.Errorf("seeddb: section sizes overflow")
	}
	var sections [4][]byte
	for i, s := range meta.sections {
		if s.size != want[i] {
			return nil, fmt.Errorf("seeddb: section %d holds %d bytes, geometry implies %d", i, s.size, want[i])
		}
		if s.off%dbAlign != 0 {
			return nil, fmt.Errorf("seeddb: section %d offset %d not %d-aligned", i, s.off, dbAlign)
		}
		if s.off > uint64(len(data)) || s.size > uint64(len(data))-s.off {
			return nil, fmt.Errorf("seeddb: section %d [%d, +%d) outside file of %d bytes", i, s.off, s.size, len(data))
		}
		sections[i] = data[s.off : s.off+s.size]
	}

	ix := &Index{
		model:         model,
		n:             meta.n,
		subLen:        int(meta.subLen),
		bucketStart:   u32View(sections[0]),
		entries:       entryView(sections[1]),
		neighborhoods: sections[2],
	}

	// Rebuild the bank over the residues section: ids are copied
	// (strings), sequences alias the mapping.
	b := bank.New(meta.bankName)
	res := sections[3]
	var off uint64
	for i, l := range meta.seqLens {
		b.Add(meta.ids[i], res[off:off+l:off+l])
		off += l
	}
	ix.bank = b

	// Structural invariants the engine indexes by without re-checking.
	bs := ix.bucketStart
	if bs[0] != 0 || uint64(bs[len(bs)-1]) != meta.numEntries {
		return nil, fmt.Errorf("seeddb: bucket table does not span [0, %d)", meta.numEntries)
	}
	for k := 1; k < len(bs); k++ {
		if bs[k] < bs[k-1] {
			return nil, fmt.Errorf("seeddb: bucket table not monotone at key %d", k-1)
		}
		if bs[k] > bs[k-1] {
			ix.keys = append(ix.keys, uint32(k-1))
		}
	}
	for i := range ix.entries {
		e := &ix.entries[i]
		if int(e.Seq) >= b.Len() {
			return nil, fmt.Errorf("seeddb: entry %d references sequence %d of %d", i, e.Seq, b.Len())
		}
		if uint64(e.Off)+w > meta.seqLens[e.Seq] {
			return nil, fmt.Errorf("seeddb: entry %d offset %d outside sequence %d (len %d)", i, e.Off, e.Seq, meta.seqLens[e.Seq])
		}
	}

	// The fingerprint stamp is the compatibility contract: recompute it
	// from the decoded bank and model so a loaded index is known to
	// serve exactly the subject it claims (and any corruption of the
	// bank or meta sections is caught even without the full CRC pass).
	if fp := Fingerprint(b, model, meta.n); fp != meta.fingerprint {
		return nil, fmt.Errorf("seeddb: fingerprint mismatch: file stamped %.24s…, contents hash to %.24s…", meta.fingerprint, fp)
	}
	ix.fingerprint = meta.fingerprint
	return ix, nil
}

// Inspect reads a seeddb file's preamble and meta block without
// touching the data sections.
func Inspect(path string) (*DBInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	pre := make([]byte, dbPreambleLen)
	if _, err := io.ReadFull(f, pre); err != nil {
		return nil, fmt.Errorf("index: %s: seeddb preamble: %w", path, err)
	}
	metaLen, err := checkPreamble(pre, uint64(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("index: %s: %w", path, err)
	}
	metaBytes := make([]byte, metaLen)
	if _, err := io.ReadFull(f, metaBytes); err != nil {
		return nil, fmt.Errorf("index: %s: seeddb meta: %w", path, err)
	}
	if crc := crc32.Checksum(metaBytes, castagnoli); crc != binary.NativeEndian.Uint32(pre[24:]) {
		return nil, fmt.Errorf("index: %s: seeddb meta checksum mismatch", path)
	}
	meta, err := decodeMeta(metaBytes)
	if err != nil {
		return nil, fmt.Errorf("index: %s: %w", path, err)
	}
	model, err := reconstructModel(meta)
	if err != nil {
		return nil, fmt.Errorf("index: %s: %w", path, err)
	}
	var residues uint64
	for _, l := range meta.seqLens {
		residues += l
	}
	return &DBInfo{
		Path:        path,
		Version:     dbVersion,
		Fingerprint: meta.fingerprint,
		ModelName:   meta.modelName,
		Width:       model.Width(),
		KeySpace:    int(meta.keySpace),
		N:           meta.n,
		SubLen:      int(meta.subLen),
		BankName:    meta.bankName,
		Sequences:   len(meta.ids),
		Residues:    int64(residues),
		Entries:     int64(meta.numEntries),
		FileSize:    st.Size(),
	}, nil
}

// Verify fully checks a seeddb file: the preamble and meta checksum,
// the CRC32-C of every data section (including the neighborhood array
// Open deliberately skips), and the structural and fingerprint checks
// a load performs. It reads the whole file once.
func Verify(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data = alignedImage(data)
	meta, err := decodePreambleAndMeta(data)
	if err != nil {
		return fmt.Errorf("index: %s: %w", path, err)
	}
	for i, s := range meta.sections {
		if s.off > uint64(len(data)) || s.size > uint64(len(data))-s.off {
			return fmt.Errorf("index: %s: seeddb section %d outside file", path, i)
		}
		if crc := crc32.Checksum(data[s.off:s.off+s.size], castagnoli); crc != s.crc {
			return fmt.Errorf("index: %s: seeddb section %d checksum mismatch", path, i)
		}
	}
	ix, err := load(data)
	if err != nil {
		return fmt.Errorf("index: %s: %w", path, err)
	}
	return ix.Close()
}

// decodePreambleAndMeta validates the fixed preamble and decodes the
// meta block from a whole-file image.
func decodePreambleAndMeta(data []byte) (*dbMeta, error) {
	if len(data) < dbPreambleLen {
		return nil, fmt.Errorf("seeddb: %d bytes is shorter than the preamble", len(data))
	}
	metaLen, err := checkPreamble(data[:dbPreambleLen], uint64(len(data)))
	if err != nil {
		return nil, err
	}
	metaBytes := data[dbPreambleLen : dbPreambleLen+metaLen]
	if crc := crc32.Checksum(metaBytes, castagnoli); crc != binary.NativeEndian.Uint32(data[24:]) {
		return nil, fmt.Errorf("seeddb: meta checksum mismatch")
	}
	return decodeMeta(metaBytes)
}

// checkPreamble validates magic, version and byte order, and returns
// the meta block length after bounding it by the file size.
func checkPreamble(pre []byte, fileSize uint64) (uint64, error) {
	if string(pre[:8]) != dbMagic {
		return 0, fmt.Errorf("seeddb: bad magic %q", pre[:8])
	}
	if v := binary.NativeEndian.Uint32(pre[8:]); v != dbVersion {
		return 0, fmt.Errorf("seeddb: unsupported version %d (this build reads %d)", v, dbVersion)
	}
	if s := binary.NativeEndian.Uint32(pre[12:]); s != dbSentinel {
		return 0, fmt.Errorf("seeddb: byte-order sentinel %#x: file written on a foreign-endian host", s)
	}
	metaLen := binary.NativeEndian.Uint64(pre[16:])
	if metaLen > fileSize-dbPreambleLen {
		return 0, fmt.Errorf("seeddb: meta block of %d bytes outside file of %d", metaLen, fileSize)
	}
	return metaLen, nil
}

// reconstructModel rebuilds the subset seed model from the meta block
// and cross-checks the declared key space.
func reconstructModel(meta *dbMeta) (*seed.SubsetModel, error) {
	model, err := seed.NewSubset(meta.modelName, meta.positions...)
	if err != nil {
		return nil, fmt.Errorf("seeddb: seed model: %w", err)
	}
	if uint64(model.KeySpace()) != meta.keySpace {
		return nil, fmt.Errorf("seeddb: declared key space %d, positions imply %d", meta.keySpace, model.KeySpace())
	}
	return model, nil
}

// --- meta encoding ---

type metaWriter struct{ buf bytes.Buffer }

func (w *metaWriter) u32(v uint32) {
	var b [4]byte
	binary.NativeEndian.PutUint32(b[:], v)
	w.buf.Write(b[:])
}

func (w *metaWriter) u64(v uint64) {
	var b [8]byte
	binary.NativeEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}

func (w *metaWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf.WriteString(s)
}

func encodeMeta(m *dbMeta) []byte {
	var w metaWriter
	w.str(m.fingerprint)
	w.u64(uint64(m.n))
	w.str(m.modelName)
	w.u64(uint64(len(m.positions)))
	for _, p := range m.positions {
		w.str(p.Label)
		w.u64(uint64(p.NumGroups))
		w.buf.Write(p.Group[:])
	}
	w.str(m.bankName)
	w.u64(uint64(len(m.ids)))
	for i, id := range m.ids {
		w.str(id)
		w.u64(m.seqLens[i])
	}
	w.u64(m.numEntries)
	w.u64(m.keySpace)
	w.u64(m.subLen)
	for _, s := range m.sections {
		w.u64(s.off)
		w.u64(s.size)
		w.u32(s.crc)
	}
	return w.buf.Bytes()
}

// metaReader is a bounds-checked cursor over the meta block: every read
// that would pass the end flips err, and the decode fails closed.
type metaReader struct {
	data []byte
	pos  int
	err  error
}

func (r *metaReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.pos {
		r.err = fmt.Errorf("seeddb: truncated meta block")
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *metaReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.NativeEndian.Uint32(b)
}

func (r *metaReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.NativeEndian.Uint64(b)
}

func (r *metaReader) str() string {
	n := r.u32()
	return string(r.take(int(n)))
}

// count reads an element count that is about to drive a decode loop;
// bounding it by the remaining meta bytes (each element costs at least
// one byte) keeps corrupt counts from driving huge allocations.
func (r *metaReader) count() int {
	n := r.u64()
	if r.err == nil && n > uint64(len(r.data)-r.pos) {
		r.err = fmt.Errorf("seeddb: element count %d exceeds meta block", n)
		return 0
	}
	return int(n)
}

func decodeMeta(data []byte) (*dbMeta, error) {
	r := &metaReader{data: data}
	m := &dbMeta{}
	m.fingerprint = r.str()
	n := r.u64()
	m.modelName = r.str()
	for range r.count() {
		var p seed.Partition
		p.Label = r.str()
		p.NumGroups = int(r.u64())
		copy(p.Group[:], r.take(len(p.Group)))
		if r.err != nil {
			return nil, r.err
		}
		if p.NumGroups <= 0 || p.NumGroups > len(p.Group) {
			return nil, fmt.Errorf("seeddb: partition with %d groups", p.NumGroups)
		}
		for _, g := range p.Group {
			if int(g) >= p.NumGroups {
				return nil, fmt.Errorf("seeddb: partition group id %d outside %d groups", g, p.NumGroups)
			}
		}
		m.positions = append(m.positions, p)
	}
	m.bankName = r.str()
	for range r.count() {
		m.ids = append(m.ids, r.str())
		m.seqLens = append(m.seqLens, r.u64())
		if r.err != nil {
			return nil, r.err
		}
	}
	m.numEntries = r.u64()
	m.keySpace = r.u64()
	m.subLen = r.u64()
	for i := range m.sections {
		m.sections[i] = dbSection{off: r.u64(), size: r.u64(), crc: r.u32()}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("seeddb: %d trailing bytes after meta block", len(r.data)-r.pos)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("seeddb: neighbourhood extension %d out of range", n)
	}
	m.n = int(n)
	if m.keySpace == 0 || m.keySpace > math.MaxInt32 {
		return nil, fmt.Errorf("seeddb: key space %d out of range", m.keySpace)
	}
	if m.subLen == 0 || m.subLen > math.MaxInt32 {
		return nil, fmt.Errorf("seeddb: window length %d out of range", m.subLen)
	}
	if m.numEntries > math.MaxInt64/m.subLen {
		return nil, fmt.Errorf("seeddb: entry count %d overflows", m.numEntries)
	}
	return m, nil
}

// --- raw slice views (native-endian on-disk form) ---

func align(off, to uint64) uint64 { return (off + to - 1) &^ (to - 1) }

// u32Bytes reinterprets a uint32 slice as its backing bytes.
func u32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// entryBytes reinterprets an Entry slice as its backing bytes. Entry is
// two uint32s, so its in-memory form is exactly the on-disk layout.
func entryBytes(s []Entry) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// u32View aliases a byte section (dbAlign-aligned, length validated a
// multiple of 4 by the caller's geometry check) as uint32s.
func u32View(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// entryView aliases a byte section as Entries.
func entryView(b []byte) []Entry {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*Entry)(unsafe.Pointer(&b[0])), len(b)/8)
}
