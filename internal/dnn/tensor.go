// Package dnn is the minimal CNN inference engine behind the vision
// detectors. It serves two roles that the paper's CUDA-based SSD/YOLO
// implementations play there:
//
//  1. Functional: a reduced-scale convolutional pipeline really runs
//     over the synthetic camera pixels and produces detections whose
//     quality depends on image content (hand-constructed color/edge
//     filters plus a saliency decoding head — no ground-truth leaks).
//  2. Analytic: each detector carries its *full-size* architecture
//     (VGG-SSD at 300/512, Darknet-53 YOLOv3 at 416) whose exact
//     per-layer FLOP and byte volumes drive the GPU timing and power
//     models, preserving the relative cost ratios the paper measures.
package dnn

import "fmt"

// Tensor is a dense CHW float32 tensor.
type Tensor struct {
	C, H, W int
	Data    []float32
}

// NewTensor allocates a zero tensor.
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("dnn: bad tensor dims %dx%dx%d", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// Reshape resizes t in place to (c, h, w), reusing its buffer when
// capacity allows. Contents are unspecified afterwards; every layer
// below overwrites its full output. Returns t.
func (t *Tensor) Reshape(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("dnn: bad tensor dims %dx%dx%d", c, h, w))
	}
	n := c * h * w
	if cap(t.Data) < n {
		t.Data = make([]float32, n)
	}
	t.Data = t.Data[:n]
	t.C, t.H, t.W = c, h, w
	return t
}

// ensureDst returns dst reshaped to (c, h, w), allocating when nil.
func ensureDst(dst *Tensor, c, h, w int) *Tensor {
	if dst == nil {
		return NewTensor(c, h, w)
	}
	return dst.Reshape(c, h, w)
}

// At returns element (c, y, x).
func (t *Tensor) At(c, y, x int) float32 { return t.Data[(c*t.H+y)*t.W+x] }

// Set assigns element (c, y, x).
func (t *Tensor) Set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

// Conv2D applies a 3x3-style convolution with stride and zero padding.
// weights layout: [outC][inC][k][k]; bias length outC.
func Conv2D(in *Tensor, weights []float32, bias []float32, outC, k, stride, pad int) *Tensor {
	return Conv2DInto(in, weights, bias, outC, k, stride, pad, nil)
}

// Conv2DInto is Conv2D with a reusable destination tensor (nil
// allocates). dst must not alias in.
//
// Every output pixel is its bias plus its in-bounds taps, added one at a
// time in (ic, ky, kx) order. Taps that fall in the padding are skipped,
// never added as 0·w: that would turn a −0 sum into +0. The kernel walks
// output rows: a row starts at the bias and each input channel adds its
// taps over contiguous row slices, which keeps each pixel's sequence of
// additions and so every output bit (TestConv2DMatchesReference). It
// runs on the calling goroutine: at the detector's layer sizes a
// per-layer goroutine fan-out costs more CPU than it saves.
func Conv2DInto(in *Tensor, weights []float32, bias []float32, outC, k, stride, pad int, dst *Tensor) *Tensor {
	if len(weights) != outC*in.C*k*k {
		panic("dnn: conv weight size mismatch")
	}
	if len(bias) != outC {
		panic("dnn: conv bias size mismatch")
	}
	outH := (in.H+2*pad-k)/stride + 1
	outW := (in.W+2*pad-k)/stride + 1
	out := ensureDst(dst, outC, outH, outW)
	kk, plane := k*k, in.H*in.W
	// Output columns [xLo, xHi) read no padding column for any kx.
	xLo := min((pad+stride-1)/stride, outW)
	xHi := xLo
	if in.W+pad >= k {
		xHi = max(xLo, min((in.W+pad-k)/stride+1, outW))
	}
	for oc := 0; oc < outC; oc++ {
		wo := weights[oc*in.C*kk : (oc+1)*in.C*kk]
		for oy := 0; oy < outH; oy++ {
			row := out.Data[(oc*outH+oy)*outW:][:outW]
			for x := range row {
				row[x] = bias[oc]
			}
			iy0 := oy*stride - pad
			kyLo, kyHi := max(0, -iy0), min(k, in.H-iy0)
			for ic := 0; ic < in.C; ic++ {
				src := in.Data[ic*plane:][:plane]
				wc := wo[ic*kk:][:kk]
				if xLo < xHi {
					seg, ix0 := row[xLo:xHi], xLo*stride-pad
					switch {
					case k == 3 && stride == 1 && kyLo == 0 && kyHi == 3:
						conv3Row(seg, src[iy0*in.W:][:3*in.W], in.W, ix0, wc)
					case k == 1 && stride == 1:
						if kyLo < kyHi {
							axpy(seg, src[iy0*in.W+ix0:], wc[0])
						}
					default:
						for ky := kyLo; ky < kyHi; ky++ {
							rowTaps(seg, src[(iy0+ky)*in.W+ix0:], wc[ky*k:][:k], stride)
						}
					}
				}
				for ox := 0; ox < xLo; ox++ {
					row[ox] = taps(row[ox], src, in.W, wc, k, iy0, ox*stride-pad, kyLo, kyHi)
				}
				for ox := xHi; ox < outW; ox++ {
					row[ox] = taps(row[ox], src, in.W, wc, k, iy0, ox*stride-pad, kyLo, kyHi)
				}
			}
		}
	}
	return out
}

// conv3Row adds one input channel's 3x3 taps to the output row segment
// dst, each of whose pixels reads only in-bounds samples: pixel i reads
// columns ix0+i .. ix0+i+2 of the three w-wide input rows in rows.
func conv3Row(dst, rows []float32, w, ix0 int, wc []float32) {
	n := len(dst)
	wc = wc[:9]
	w0, w1, w2, w3, w4, w5, w6, w7, w8 := wc[0], wc[1], wc[2], wc[3], wc[4], wc[5], wc[6], wc[7], wc[8]
	r0 := rows[ix0 : ix0+n+2]
	r1 := rows[w+ix0 : w+ix0+n+2]
	r2 := rows[2*w+ix0 : 2*w+ix0+n+2]
	a0, a1, a2 := r0[:n], r0[1:n+1], r0[2:n+2]
	b0, b1, b2 := r1[:n], r1[1:n+1], r1[2:n+2]
	c0, c1, c2 := r2[:n], r2[1:n+1], r2[2:n+2]
	for i := range dst {
		acc := dst[i]
		acc += a0[i] * w0
		acc += a1[i] * w1
		acc += a2[i] * w2
		acc += b0[i] * w3
		acc += b1[i] * w4
		acc += b2[i] * w5
		acc += c0[i] * w6
		acc += c1[i] * w7
		acc += c2[i] * w8
		dst[i] = acc
	}
}

// axpy adds src[i]*a to dst[i]: the 1x1 convolution of one channel row.
func axpy(dst, src []float32, a float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i] * a
	}
}

// rowTaps adds the k taps of one kernel row wr to each pixel of dst,
// whose pixel i reads src[i*stride : i*stride+k].
func rowTaps(dst, src, wr []float32, stride int) {
	k := len(wr)
	for i := range dst {
		s := src[i*stride:][:k]
		acc := dst[i]
		for j, wv := range wr {
			acc += s[j] * wv
		}
		dst[i] = acc
	}
}

// taps adds to acc the in-bounds taps, in (ky, kx) order, of the k x k
// window whose top-left sample is (iy0, ix0) in the w-wide plane src.
// Rows kyLo up to kyHi of the window are the in-bounds ones.
func taps(acc float32, src []float32, w int, wc []float32, k, iy0, ix0, kyLo, kyHi int) float32 {
	kxLo, kxHi := max(0, -ix0), min(k, w-ix0)
	for ky := kyLo; ky < kyHi; ky++ {
		for kx := kxLo; kx < kxHi; kx++ {
			acc += src[(iy0+ky)*w+ix0+kx] * wc[ky*k+kx]
		}
	}
	return acc
}

// LeakyReLU applies max(x, alpha*x) in place and returns t.
func LeakyReLU(t *Tensor, alpha float32) *Tensor {
	d := t.Data
	for i, v := range d {
		if v < 0 {
			d[i] = alpha * v
		}
	}
	return t
}

// MaxPool2x2 downsamples by 2 with a 2x2 window (odd trailing row/col
// dropped, as common frameworks do with floor mode).
func MaxPool2x2(in *Tensor) *Tensor {
	return MaxPool2x2Into(in, nil)
}

// MaxPool2x2Into is MaxPool2x2 with a reusable destination (nil
// allocates). dst must not alias in.
func MaxPool2x2Into(in *Tensor, dst *Tensor) *Tensor {
	outH, outW := in.H/2, in.W/2
	if outH < 1 || outW < 1 {
		panic("dnn: tensor too small to pool")
	}
	out := ensureDst(dst, in.C, outH, outW)
	for c := 0; c < in.C; c++ {
		for y := 0; y < outH; y++ {
			top := in.Data[(c*in.H+2*y)*in.W:][:2*outW]
			bot := in.Data[(c*in.H+2*y+1)*in.W:][:2*outW]
			o := out.Data[(c*outH+y)*outW:][:outW]
			for x := range o {
				m := top[2*x]
				if v := top[2*x+1]; v > m {
					m = v
				}
				if v := bot[2*x]; v > m {
					m = v
				}
				if v := bot[2*x+1]; v > m {
					m = v
				}
				o[x] = m
			}
		}
	}
	return out
}

// ResizeBilinear resamples to (h, w).
func ResizeBilinear(in *Tensor, h, w int) *Tensor {
	return ResizeBilinearInto(in, h, w, nil)
}

// ResizeBilinearInto is ResizeBilinear with a reusable destination (nil
// allocates). dst must not alias in.
func ResizeBilinearInto(in *Tensor, h, w int, dst *Tensor) *Tensor {
	out := ensureDst(dst, in.C, h, w)
	if in.H == h && in.W == w {
		copy(out.Data, in.Data)
		return out
	}
	sy := float32(in.H) / float32(h)
	sx := float32(in.W) / float32(w)
	for c := 0; c < in.C; c++ {
		plane := in.Data[c*in.H*in.W:][:in.H*in.W]
		for y := 0; y < h; y++ {
			fy := (float32(y)+0.5)*sy - 0.5
			y0 := int(fy)
			if y0 < 0 {
				y0 = 0
			}
			y1 := y0 + 1
			if y1 >= in.H {
				y1 = in.H - 1
			}
			wy := fy - float32(y0)
			if wy < 0 {
				wy = 0
			}
			r0 := plane[y0*in.W:][:in.W]
			r1 := plane[y1*in.W:][:in.W]
			o := out.Data[(c*h+y)*w:][:w]
			for x := range o {
				fx := (float32(x)+0.5)*sx - 0.5
				x0 := int(fx)
				if x0 < 0 {
					x0 = 0
				}
				x1 := x0 + 1
				if x1 >= in.W {
					x1 = in.W - 1
				}
				wx := fx - float32(x0)
				if wx < 0 {
					wx = 0
				}
				o[x] = r0[x0]*(1-wy)*(1-wx) +
					r0[x1]*(1-wy)*wx +
					r1[x0]*wy*(1-wx) +
					r1[x1]*wy*wx
			}
		}
	}
	return out
}
