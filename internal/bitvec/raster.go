package bitvec

import "fmt"

// Raster is a batch of same-length bit vectors packed into one backing
// array — a structure-of-arrays spike raster.
// Image i's bits occupy a fixed word stride starting at word i*Stride, and
// Image returns a *Bits view aliasing that window, so every single-image
// kernel (AppendSet, AppendSetRange, Load8, ...) consumes raster rows
// unchanged and allocation-free.
type Raster struct {
	images, n int
	stride    int // words per image
	words     []uint64
	views     []Bits
}

// NewRaster returns a zeroed raster of the given image count, each n bits.
func NewRaster(images, n int) *Raster {
	if images < 0 || n < 0 {
		panic(fmt.Sprintf("bitvec: NewRaster %d images x %d bits", images, n))
	}
	stride := (n + 63) / 64
	r := &Raster{
		images: images,
		n:      n,
		stride: stride,
		words:  make([]uint64, images*stride),
		views:  make([]Bits, images),
	}
	for i := range r.views {
		r.views[i] = Bits{n: n, words: r.words[i*stride : (i+1)*stride : (i+1)*stride]}
	}
	return r
}

// Images returns the number of images in the raster.
func (r *Raster) Images() int { return r.images }

// Len returns the bit length of each image.
func (r *Raster) Len() int { return r.n }

// Image returns the i-th image's bits as a view aliasing the raster
// storage. The view is cached at construction, so repeated calls on the hot
// path do not allocate (and the call inlines to pointer arithmetic).
func (r *Raster) Image(i int) *Bits {
	if uint(i) >= uint(r.images) {
		r.panicImage(i)
	}
	return &r.views[i]
}

//go:noinline
func (r *Raster) panicImage(i int) {
	panic(fmt.Sprintf("bitvec: Raster image %d out of range [0,%d)", i, r.images))
}

// Reset clears every image.
func (r *Raster) Reset() {
	for i := range r.words {
		r.words[i] = 0
	}
}
