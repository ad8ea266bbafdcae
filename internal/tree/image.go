package tree

import (
	"errors"
	"math"
)

// Image is the serialized form of one version of a chain (see chainID):
// the bytes Emitter.Node writes for the version's root, plus the byte
// range of every element or document node with children, by ordinal.
// An Emitter finds the image of the chain that stamped each node it
// emits, so a tree mixing subtrees of several imaged chains (a query or
// view result over a snapshot) goes out mostly as copied bytes. A node
// no image covers is walked: an unstamped one, one of a chain without
// an image, one past the table or one the imaged version does not
// reach. A serialization larger than 4 GiB, which uint32 ranges cannot
// address, gives an image covering nothing.
type Image struct {
	data  []byte
	spans []span // by ordinal; end == 0 means not covered
}

// span is the byte range [start,end) of one node's serialization.
type span struct{ start, end uint32 }

// Len returns the size of the image's serialization in bytes.
func (img *Image) Len() int { return len(img.data) }

// Subtree returns the serialization of the subtree rooted at n, or nil
// when img (which may be nil) does not cover n. The slice aliases the
// image: treat it as read-only.
func (img *Image) Subtree(n *Node) []byte {
	if found, s := imaged(n); found == img && s.end != 0 {
		return img.data[s.start:s.end:s.end]
	}
	return nil
}

// imaged returns the image of the chain that stamped n and n's range in
// it, or a zero range (end 0) when no image covers n.
func imaged(n *Node) (img *Image, s span) {
	if o := n.idx.Load(); o != nil && o.chain != nil {
		img = o.chain.img.Load()
	}
	if img == nil || uint(n.ord) >= uint(len(img.spans)) {
		return img, span{}
	}
	return img, img.spans[n.ord]
}

// buildImage serializes ix.Root twice: once to measure it, once into an
// exactly sized buffer while recording the ranges. The image is built
// once per chain and kept for the chain's life, so it takes a second
// walk rather than leaving a transient copy of the document behind.
func buildImage(ix *Index) *Image {
	var sink imageSink
	if !writeImage(ix, &sink, nil) {
		return &Image{}
	}
	sink = imageSink{buf: make([]byte, 0, sink.n), keep: true}
	img := &Image{spans: make([]span, ix.NumNodes)}
	writeImage(ix, &sink, img)
	img.data = sink.buf
	return img
}

var errImageTooLarge = errors.New("tree: image exceeds 4 GiB")

// imageSink counts what is written to it, and keeps it when keep is set.
type imageSink struct {
	buf  []byte
	n    int
	keep bool
}

func (s *imageSink) Write(p []byte) (int, error) {
	s.n += len(p)
	if s.n > math.MaxUint32 {
		return 0, errImageTooLarge
	}
	if s.keep {
		s.buf = append(s.buf, p...)
	}
	return len(p), nil
}

// writeImage writes ix.Root to s exactly as Emitter.Node does, with an
// iterative walk (documents as deep as WithMaxDepth admits must not
// overflow the stack), and records in img, when non-nil, the range of
// every member node with children. It reports false when the output
// does not fit uint32 offsets.
func writeImage(ix *Index, s *imageSink, img *Image) bool {
	e := NewEmitter(s)
	type frame struct {
		n     *Node
		start int // -1 on entry; the node's first byte on exit
	}
	stack := []frame{{ix.Root, -1}}
	for len(stack) > 0 && e.err == nil {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := f.n
		if f.start >= 0 {
			if n.Kind == Element {
				e.EndTag(n.Label)
			}
			if img != nil && ix.Contains(n) {
				img.spans[n.ord] = span{uint32(f.start), uint32(s.n + len(e.buf))}
			}
			continue
		}
		start := s.n + len(e.buf)
		switch n.Kind {
		case Text:
			e.Text(n.Data)
			continue
		case Element:
			e.StartTag(n.Label, n.Attrs)
			if len(n.Children) == 0 {
				e.Raw("/>")
				continue
			}
			e.Raw(">")
		}
		stack = append(stack, frame{n, start})
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, frame{n.Children[i], -1})
		}
	}
	return e.Flush() == nil
}
