package tree

import (
	"sync/atomic"

	"xtq/internal/obs"
)

// chainID is the identity shared by every version of one version chain
// — the versions PathCopy derives from one Adopt or Freeze, or one
// materialized view stamped in place (StampChain) — and the owner of
// everything the chain's reads derive from its versions. A version
// never changes, a stamped node's subtree never changes, and an ordinal
// is never reused within a chain, so each derivation serves every
// version of the chain and no commit invalidates it:
//
//   - the image (Image): one version's serialization plus the byte range
//     of every node with children in it, which every Emitter copies
//     instead of walking and escaping the subtree;
//   - the subtree label masks (Below): per ordinal, the labels strictly
//     below the node, with which the evaluators skip descents that
//     cannot reach a label they look for;
//   - the recorded answers (ReadAnswer): transform answers over single
//     versions, kept as ranges of the image and literal bytes, which
//     later reads of the same (query, version) pair replay.
//
// Image and masks are built by one walk each of the version whose read
// is the chain's second (Read), at most once per chain, and published
// with one CAS (publish): concurrent builders may each build, but every
// caller gets the one published. A chain read once derives nothing: a
// build costs about one walk more than the read it serves. Nothing
// refreshes them: a node a later commit creates is past their tables,
// and a node the built version does not reach is not covered, so both
// are walked, with every label bit set. Compaction starts a new chain,
// which derives nothing until it is read twice.
//
// A chain's answers are charged at most its image's size together, or
// one note while it has no image, so a chain holds at most about twice
// its serialization plus 8 B per ordinal. Account reads what chains
// hold, by kind.
type chainID struct {
	img   atomic.Pointer[Image]
	below atomic.Pointer[[]uint64]
	read  atomic.Bool // a read of the chain has been noted
	ans   atomic.Pointer[answers]
}

// Need says what a read of a version chain uses of its derived state.
type Need uint8

const (
	// NeedMasks is a read that prunes its walk with the label masks and
	// copies none of the chain's bytes: a query composed with a view.
	NeedMasks Need = iota
	// NeedImage is a read that copies the chain's bytes: a transform
	// query or a maintained-view read. The image brings the masks.
	NeedImage
)

// Read notes a read of ix's version chain that needs need, and returns
// the chain's image (nil when it has none). The chain's second noted
// read, of either need, builds from ix what need names and the chain
// lacks: the masks, then, for NeedImage, the image. ix must be a
// version's own index (Adopt, Freeze, PathCopy, StampChain); for any
// other, nil included, Read does nothing. A view chain's image holds the
// whole view's bytes but ranges only for the nodes the view created.
func (ix *Index) Read(need Need) *Image {
	if ix == nil || ix.chain == nil || ix.Root == nil {
		return nil
	}
	c := ix.chain
	if img := c.img.Load(); img != nil || (need == NeedMasks && c.below.Load() != nil) || !c.read.Swap(true) {
		return img
	}
	if c.below.Load() == nil {
		m := buildMasks(ix)
		publish(&c.below, &m, DerivedMasks)
	}
	if need == NeedMasks {
		return c.img.Load()
	}
	return publish(&c.img, buildImage(ix), DerivedImage)
}

// publish installs v in p unless p holds a value already, counting the
// build of kind, and returns what p holds.
func publish[T any](p *atomic.Pointer[T], v *T, kind int) *T {
	if p.CompareAndSwap(nil, v) {
		mBuilds[kind].Inc()
		return v
	}
	return p.Load()
}

// LoadImage returns the image of ix's chain if one has been built, and
// nil otherwise. It never builds one.
func (ix *Index) LoadImage() *Image {
	if ix.chain == nil {
		return nil
	}
	return ix.chain.img.Load()
}

// HasMasks reports whether ix's chain has label masks, so that a walk
// can skip asking Below when every answer would have every bit set.
func (ix *Index) HasMasks() bool {
	return ix.chain != nil && ix.chain.below.Load() != nil
}

// Kinds of derived state: the indexes of Account.Bytes.
const (
	DerivedImage = iota
	DerivedMasks
	DerivedAnswers
	numDerived
)

// DerivedKinds names the kinds of derived state, by index: the kind
// label of the chain metrics.
var DerivedKinds = [numDerived]string{"image", "masks", "answers"}

// mBuilds counts the derived state built, by kind; the series are
// resolved once.
var mBuilds = func() (m [numDerived]*obs.Counter) {
	v := obs.Default.CounterVec("xtq_chain_derived_builds_total",
		"Derived state built from version chains, by kind: images and label masks (at most one each per chain) and recorded transform answers.", "kind")
	for k, name := range DerivedKinds {
		m[k] = v.With(name)
	}
	return m
}()

// Account sums the bytes of derived state that distinct version chains
// hold, by kind: the image's serialization, 8 B per ordinal of the
// label masks, and what the answer table is charged. A chain counts
// once however many of its versions are added. The zero value is an
// empty account.
type Account struct {
	Bytes [numDerived]int64
	seen  map[*chainID]bool
}

// Add adds what ix's chain holds, unless the account has it already.
// ix may be nil or outside any chain.
func (a *Account) Add(ix *Index) {
	if ix == nil || ix.chain == nil || a.seen[ix.chain] {
		return
	}
	if a.seen == nil {
		a.seen = make(map[*chainID]bool)
	}
	c := ix.chain
	a.seen[c] = true
	if img := c.img.Load(); img != nil {
		a.Bytes[DerivedImage] += int64(img.Len())
	}
	if m := c.below.Load(); m != nil {
		a.Bytes[DerivedMasks] += 8 * int64(len(*m))
	}
	if t := c.ans.Load(); t != nil {
		t.mu.Lock()
		a.Bytes[DerivedAnswers] += int64(t.used)
		t.mu.Unlock()
	}
}
