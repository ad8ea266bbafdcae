package tree

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// A version never changes, so a transform query's answer over it — the
// bytes one topdown walk writes — is a pure function of the query and
// the version. A version chain keeps, beside its image and label masks,
// a table of such answers recorded from the walk's own output and
// replayed on later reads of the same (query, version) pair:
//
//   - The first read of a pair only notes it. The second, over a chain
//     that has its image, records the walk's output into a Recorder
//     attached to the walk's Emitter, and publishes it when the walk
//     succeeds. Every later read replays the Recording.
//   - A Recording is a compact list of segments, 8 bytes each: ranges
//     of the chain image (what Emitter.Node copied, and the literal
//     bytes that equal the image's next bytes), runs of its own literal
//     bytes (what the walk wrote itself), and occurrences of one shared
//     byte slice (the query's constant, see Emitter.Shared).
//   - A Recording holds no tree node, only bytes, so it dies with the
//     chain. The table of one chain holds at most its image's byte
//     count in notes and recordings together, evicting the oldest entry
//     first; a chain without an image holds one note.
//   - A pair is keyed by the query's id and the version's epoch: every
//     published version of a chain has its own epoch (a commit's result
//     that loses the store's CAS is never read).

// entryBytes is what one table entry is charged beyond its segments and
// literal bytes: the map slot and the bookkeeping structs.
const entryBytes = 64

// Segment kinds: bits 62-63 of a segment.
const (
	segImage  = iota // a range of the chain image
	segLit           // a run of the recording's own literal bytes
	segShared        // a range of the recording's shared slice
)

// segMaxLen is the longest range one segment holds; longer ones split.
const segMaxLen = 1<<30 - 1

func packSeg(kind, off, n int) uint64 {
	return uint64(kind)<<62 | uint64(off)<<30 | uint64(n)
}

func unpackSeg(s uint64) (kind, off, n int) {
	return int(s >> 62), int(s >> 30 & math.MaxUint32), int(s & segMaxLen)
}

// Recording is one recorded transform answer: the bytes a walk wrote,
// as segments over the chain image, its own literal bytes and one
// shared slice. It is immutable once published.
type Recording struct {
	img    *Image
	segs   []uint64
	lit    []byte
	shared []byte
}

// Emit writes the recorded answer to e: every segment's bytes in order.
// It stops at e's first write error.
func (rec *Recording) Emit(e *Emitter) {
	for _, s := range rec.segs {
		kind, off, n := unpackSeg(s)
		src := rec.lit
		switch kind {
		case segImage:
			src = rec.img.data
		case segShared:
			src = rec.shared
		}
		if e.Bytes(src[off : off+n : off+n]); e.err != nil {
			return
		}
	}
}

// size is the table charge of the recording.
func (rec *Recording) size() int { return entryBytes + 8*len(rec.segs) + len(rec.lit) }

// Recorder collects a Recording from the bytes an Emitter hands it (see
// Emitter.Record). It stops collecting, and will not publish, once the
// recording outgrows the chain's budget.
type Recorder struct {
	rec   Recording
	limit int // the budget the recording must fit
	full  bool
	tab   *answers
	key   answerKey
}

// literal appends bytes the walk wrote itself. The prefix of p equal to
// the image's bytes after the last segment, when that is an image range,
// extends the range instead (leaves and unchanged tags between copied
// subtrees).
func (r *Recorder) literal(p []byte) {
	if len(p) == 0 || r.full {
		return
	}
	if l := len(r.rec.segs); l > 0 {
		if kind, off, n := unpackSeg(r.rec.segs[l-1]); kind == segImage {
			m := commonPrefix(p, r.rec.img.data[off+n:])
			r.add(segImage, off+n, m)
			p = p[m:]
		}
	}
	if len(p) == 0 {
		return
	}
	if len(r.rec.lit)+len(p) > math.MaxUint32 {
		r.stop()
		return
	}
	off := len(r.rec.lit)
	r.rec.lit = append(r.rec.lit, p...)
	r.add(segLit, off, len(p))
}

// commonPrefix returns the length of the longest common prefix of p and q.
func commonPrefix(p, q []byte) int {
	if bytes.HasPrefix(q, p) {
		return len(p)
	}
	i := 0
	for i < len(p) && i < len(q) && p[i] == q[i] {
		i++
	}
	return i
}

// image appends the range s of img, which Emitter.Node copied. A range
// of another chain's image is a literal run here.
func (r *Recorder) image(img *Image, s span) {
	if img != r.rec.img {
		r.literal(img.data[s.start:s.end])
		return
	}
	r.add(segImage, int(s.start), int(s.end-s.start))
}

// sharedBytes appends b, which its owner never changes: the first such
// slice is kept by reference and each occurrence costs one segment;
// any other slice is a literal run.
func (r *Recorder) sharedBytes(b []byte) {
	if r.rec.shared == nil && len(b) > 0 && len(b) <= segMaxLen {
		r.rec.shared = b
	}
	if len(b) > 0 && len(b) == len(r.rec.shared) && &b[0] == &r.rec.shared[0] {
		r.add(segShared, 0, len(b))
		return
	}
	r.literal(b)
}

// add appends the range [off, off+n) of kind's source, extending the
// last segment when the range continues it.
func (r *Recorder) add(kind, off, n int) {
	if r.full {
		return
	}
	for n > 0 {
		if l := len(r.rec.segs); l > 0 {
			if k, o, m := unpackSeg(r.rec.segs[l-1]); k == kind && o+m == off && m < segMaxLen {
				d := min(n, segMaxLen-m)
				r.rec.segs[l-1] = packSeg(k, o, m+d)
				off, n = off+d, n-d
				continue
			}
		}
		d := min(n, segMaxLen)
		r.rec.segs = append(r.rec.segs, packSeg(kind, off, d))
		off, n = off+d, n-d
	}
	if r.rec.size() > r.limit {
		r.stop()
	}
}

// stop abandons the recording: it outgrew its budget.
func (r *Recorder) stop() {
	r.full = true
	r.rec.segs, r.rec.lit = nil, nil
}

// Publish installs the recording for its (query, version) pair, unless
// another recorder published first or the recording outgrew the chain's
// budget. Call it only after a walk that completed and whose every
// write succeeded. It reports whether the recording was installed.
func (r *Recorder) Publish() bool {
	if r.full {
		return false
	}
	rec := &Recording{
		img:    r.rec.img,
		segs:   append([]uint64(nil), r.rec.segs...),
		lit:    append([]byte(nil), r.rec.lit...),
		shared: r.rec.shared,
	}
	return r.tab.publish(r.key, rec, r.limit)
}

// answerKey names one (query, version) pair of a chain.
type answerKey struct {
	query uint64
	epoch int32
}

// answer is one table entry: a note (rec nil) or a recording.
type answer struct {
	rec  *Recording
	size int
}

// answers is a chain's table of noted and recorded answers.
type answers struct {
	mu   sync.Mutex
	m    map[answerKey]answer
	fifo []answerKey // every key of m, oldest first
	used int         // charged bytes of all entries
	live int         // charged bytes of the recordings
}

// answerBytes is the charge of every recording on a live chain.
var answerBytes atomic.Int64

// LiveAnswerBytes returns the bytes the recorded answers of every live
// chain are charged (segments, literal bytes and per-entry overhead).
// A chain's share leaves it when the collector frees the chain.
func LiveAnswerBytes() int64 { return answerBytes.Load() }

// AnswerBytes returns the bytes charged to the recorded answers of ix's
// chain, and the bytes its notes and recordings are charged together.
func (ix *Index) AnswerBytes() (recorded, total int) {
	if ix == nil || ix.chain == nil {
		return 0, 0
	}
	t := ix.chain.ans.Load()
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live, t.used
}

// answersOf returns c's table, creating it on first use.
func (c *chainID) answersOf() *answers {
	if t := c.ans.Load(); t != nil {
		return t
	}
	t := &answers{m: make(map[answerKey]answer)}
	if !c.ans.CompareAndSwap(nil, t) {
		return c.ans.Load()
	}
	// A chain's recordings leave the gauge with it.
	runtime.SetFinalizer(t, func(t *answers) { answerBytes.Add(-int64(t.live)) })
	return t
}

// budget returns the bytes the table of a chain whose image is img
// (nil for none) may hold: the image's size, or one note.
func budget(img *Image) int {
	if img != nil {
		return img.Len()
	}
	return entryBytes
}

// ReadAnswer looks up the answer of the query with id query (nonzero)
// over ix's version. It returns the recording to replay when one is
// published, or a recorder when the pair was noted before and the
// chain has its image; otherwise it notes the pair, and both results
// are nil. ix must be a version's own index (see Image); for any other
// index, nil included, both results are nil and nothing is noted.
func (ix *Index) ReadAnswer(query uint64) (*Recording, *Recorder) {
	if ix == nil || ix.chain == nil || ix.Root == nil || query == 0 {
		return nil, nil
	}
	key := answerKey{query, ix.epoch}
	t := ix.chain.answersOf()
	t.mu.Lock()
	defer t.mu.Unlock()
	img := ix.chain.img.Load()
	a, noted := t.m[key]
	switch {
	case !noted:
		t.put(key, nil, entryBytes, budget(img))
		return nil, nil
	case a.rec != nil:
		return a.rec, nil
	case img == nil:
		return nil, nil
	}
	return nil, &Recorder{rec: Recording{img: img}, limit: img.Len(), tab: t, key: key}
}

// publish installs rec for key, within budget, unless a recording is
// there already.
func (t *answers) publish(key answerKey, rec *Recording, budget int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m[key].rec != nil {
		return false
	}
	return t.put(key, rec, rec.size(), budget)
}

// put sets key's entry to rec (nil for a note) charged size, evicting
// the oldest entries until the table fits budget; an entry larger than
// budget is not admitted. An entry that is replaced keeps its age. t.mu
// is held.
func (t *answers) put(key answerKey, rec *Recording, size, budget int) bool {
	if size > budget {
		return false
	}
	if a, ok := t.m[key]; ok {
		t.uncharge(a)
		t.m[key] = answer{}
	}
	for t.used+size > budget {
		t.evictOldest()
	}
	if _, ok := t.m[key]; !ok {
		t.fifo = append(t.fifo, key)
	}
	t.m[key] = answer{rec, size}
	t.used += size
	if rec != nil {
		t.live += size
		answerBytes.Add(int64(size))
	}
	return true
}

// evictOldest drops the oldest entry. t.mu is held.
func (t *answers) evictOldest() {
	key := t.fifo[0]
	t.fifo = t.fifo[1:]
	t.uncharge(t.m[key])
	delete(t.m, key)
}

// uncharge takes a's charge off the table. t.mu is held.
func (t *answers) uncharge(a answer) {
	t.used -= a.size
	if a.rec != nil {
		t.live -= a.size
		answerBytes.Add(-int64(a.size))
	}
}
