package dnn

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/mathx"
	"repro/internal/testenv"
)

// refConv2D is the per-pixel convolution the row-blocked Conv2DInto
// replaced, kept verbatim (minus its output-channel fan-out) as the
// bit-exact reference.
func refConv2D(in *Tensor, weights []float32, bias []float32, outC, k, stride, pad int) *Tensor {
	if len(weights) != outC*in.C*k*k {
		panic("dnn: conv weight size mismatch")
	}
	if len(bias) != outC {
		panic("dnn: conv bias size mismatch")
	}
	outH := (in.H+2*pad-k)/stride + 1
	outW := (in.W+2*pad-k)/stride + 1
	out := NewTensor(outC, outH, outW)
	convPlane := func(oc int) {
		wBase := oc * in.C * k * k
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				sum := bias[oc]
				iy0 := oy*stride - pad
				ix0 := ox*stride - pad
				for ic := 0; ic < in.C; ic++ {
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= in.H {
							continue
						}
						rowIn := (ic*in.H + iy) * in.W
						rowW := wBase + (ic*k+ky)*k
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= in.W {
								continue
							}
							sum += in.Data[rowIn+ix] * weights[rowW+kx]
						}
					}
				}
				out.Data[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	for oc := 0; oc < outC; oc++ {
		convPlane(oc)
	}
	return out
}

// refLeakyReLU is the previous LeakyReLU, verbatim.
func refLeakyReLU(t *Tensor, alpha float32) *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = alpha * v
		}
	}
	return t
}

// refMaxPool2x2 is the per-element pooling MaxPool2x2Into replaced,
// verbatim.
func refMaxPool2x2(in *Tensor) *Tensor {
	outH, outW := in.H/2, in.W/2
	if outH < 1 || outW < 1 {
		panic("dnn: tensor too small to pool")
	}
	out := NewTensor(in.C, outH, outW)
	for c := 0; c < in.C; c++ {
		for y := 0; y < outH; y++ {
			for x := 0; x < outW; x++ {
				m := in.At(c, 2*y, 2*x)
				if v := in.At(c, 2*y, 2*x+1); v > m {
					m = v
				}
				if v := in.At(c, 2*y+1, 2*x); v > m {
					m = v
				}
				if v := in.At(c, 2*y+1, 2*x+1); v > m {
					m = v
				}
				out.Set(c, y, x, m)
			}
		}
	}
	return out
}

// refResizeBilinear is the per-element resize ResizeBilinearInto
// replaced, verbatim.
func refResizeBilinear(in *Tensor, h, w int) *Tensor {
	out := NewTensor(in.C, h, w)
	if in.H == h && in.W == w {
		copy(out.Data, in.Data)
		return out
	}
	sy := float32(in.H) / float32(h)
	sx := float32(in.W) / float32(w)
	for c := 0; c < in.C; c++ {
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
			for x := 0; x < w; x++ {
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
				v := in.At(c, y0, x0)*(1-wy)*(1-wx) +
					in.At(c, y0, x1)*(1-wy)*wx +
					in.At(c, y1, x0)*wy*(1-wx) +
					in.At(c, y1, x1)*wy*wx
				out.Set(c, y, x, v)
			}
		}
	}
	return out
}

// refInfer is Detector.Infer rebuilt from the reference ops.
func refInfer(d *Detector, img *Tensor) []Detection {
	in := refResizeBilinear(img, d.funcH, d.funcW)
	f1 := refLeakyReLU(refConv2D(in, d.w1, d.b1, nc1, 3, 1, 1), 0.05)
	p1 := refMaxPool2x2(f1)
	f2 := refLeakyReLU(refConv2D(p1, d.w2, d.b2, nc2, 3, 1, 1), 0.05)
	p2 := refMaxPool2x2(f2)
	cls := refConv2D(p2, d.w3, d.b3, 4, 1, 1, 0)

	dets := d.decode(cls)
	sx := float64(img.W) / float64(cls.W)
	sy := float64(img.H) / float64(cls.H)
	for i := range dets {
		dets[i].Rect.Min.X *= sx
		dets[i].Rect.Max.X = (dets[i].Rect.Max.X + 1) * sx
		dets[i].Rect.Min.Y *= sy
		dets[i].Rect.Max.Y = (dets[i].Rect.Max.Y + 1) * sy
	}
	return NMS(dets, 0.45)
}

// randValue draws a tensor element: signed zeros one time in five (a
// sum of -0 products stays -0 only if no +0 term is ever added), a
// standard normal otherwise.
func randValue(rng *mathx.RNG) float32 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	default:
		return float32(rng.Norm())
	}
}

func randTensor(rng *mathx.RNG, c, h, w int) *Tensor {
	t := NewTensor(c, h, w)
	for i := range t.Data {
		t.Data[i] = randValue(rng)
	}
	return t
}

// sameBits reports the first element where got and want differ in any
// bit, or in shape.
func sameBits(got, want *Tensor) error {
	if got.C != want.C || got.H != want.H || got.W != want.W || len(got.Data) != len(want.Data) {
		return fmt.Errorf("shape %dx%dx%d (%d), want %dx%dx%d (%d)",
			got.C, got.H, got.W, len(got.Data), want.C, want.H, want.W, len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			return fmt.Errorf("element %d = %v (%#08x), want %v (%#08x)", i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
	return nil
}

// TestConv2DMatchesReference sweeps random shapes, strides and paddings
// and demands every output bit of Conv2DInto equal the per-pixel
// reference, through one destination reused across shapes.
func TestConv2DMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(131)
	var dst Tensor
	shapes, onePixel, noInterior := 0, 0, 0
	for shapes < 5000 {
		k := [3]int{1, 3, 5}[rng.Intn(3)]
		stride, pad := 1+rng.Intn(3), rng.Intn(k)
		c, h, w, outC := 1+rng.Intn(9), 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(4)
		outH := (h+2*pad-k)/stride + 1
		outW := (w+2*pad-k)/stride + 1
		if outH < 1 || outW < 1 {
			continue
		}
		shapes++
		if outH == 1 && outW == 1 {
			onePixel++
		}
		if w+pad < k || (w+pad-k)/stride+1 <= (pad+stride-1)/stride {
			noInterior++
		}
		in := randTensor(rng, c, h, w)
		wts := make([]float32, outC*c*k*k)
		for i := range wts {
			wts[i] = randValue(rng)
		}
		bias := make([]float32, outC)
		for i := range bias {
			bias[i] = randValue(rng)
		}
		got := Conv2DInto(in, wts, bias, outC, k, stride, pad, &dst)
		if err := sameBits(got, refConv2D(in, wts, bias, outC, k, stride, pad)); err != nil {
			t.Fatalf("C=%d H=%d W=%d outC=%d k=%d stride=%d pad=%d: %v", c, h, w, outC, k, stride, pad, err)
		}
	}
	if onePixel == 0 || noInterior == 0 {
		t.Fatalf("sweep missed edge shapes: %d 1x1 outputs, %d without interior columns", onePixel, noInterior)
	}
}

// TestConv2DNegativeZeroSum: a window of -0 products over a -0 bias must
// stay -0 at the border too, where a padding tap added as +0·w would
// turn the sum into +0.
func TestConv2DNegativeZeroSum(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	in := NewTensor(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = negZero
	}
	w := make([]float32, 9)
	for i := range w {
		w[i] = 1
	}
	out := Conv2D(in, w, []float32{negZero}, 1, 3, 1, 1)
	for i, v := range out.Data {
		if math.Float32bits(v) != math.Float32bits(negZero) {
			t.Fatalf("output %d = %v, want -0", i, v)
		}
	}
}

// TestPoolResizeMatchReference sweeps MaxPool2x2Into and
// ResizeBilinearInto against their per-element references.
func TestPoolResizeMatchReference(t *testing.T) {
	rng := mathx.NewRNG(137)
	var pool, resize Tensor
	for i := 0; i < 2000; i++ {
		c, h, w := 1+rng.Intn(9), 1+rng.Intn(40), 1+rng.Intn(40)
		in := randTensor(rng, c, h, w)
		if h >= 2 && w >= 2 {
			if err := sameBits(MaxPool2x2Into(in, &pool), refMaxPool2x2(in)); err != nil {
				t.Fatalf("pool %dx%dx%d: %v", c, h, w, err)
			}
		}
		rh, rw := 1+rng.Intn(40), 1+rng.Intn(40)
		if err := sameBits(ResizeBilinearInto(in, rh, rw, &resize), refResizeBilinear(in, rh, rw)); err != nil {
			t.Fatalf("resize %dx%dx%d -> %dx%d: %v", c, h, w, rh, rw, err)
		}
	}
}

// TestDetectorInferMatchesReference runs the detector over camera frames
// of the scripted drive and compares its detections with the pipeline
// rebuilt from the reference ops.
func TestDetectorInferMatchesReference(t *testing.T) {
	scen := testenv.Scenario()
	cam := testenv.Camera()
	d := NewDetector(ArchSSD512, 0xDE7EC7)
	found := 0
	for i := 0; i < 60; i++ {
		snap := scen.At(0.5 * float64(i))
		im := cam.Capture(&snap).Image
		img := &Tensor{C: 3, H: im.H, W: im.W, Data: im.Pix}
		got := d.Infer(img)
		if want := refInfer(d, img); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: Infer = %+v, reference = %+v", i, got, want)
		}
		found += len(got)
	}
	if found == 0 {
		t.Fatal("no frame produced a detection; the comparison is vacuous")
	}
}

// TestLayersZeroAlloc: with a sized destination the layers allocate
// nothing.
func TestLayersZeroAlloc(t *testing.T) {
	rng := mathx.NewRNG(139)
	in := randTensor(rng, 3, 48, 64)
	d := NewDetector(ArchSSD512, 1)
	conv := NewTensor(nc1, 48, 64)
	pool := NewTensor(3, 24, 32)
	resize := NewTensor(3, 96, 128)
	for name, fn := range map[string]func(){
		"Conv2DInto":         func() { Conv2DInto(in, d.w1, d.b1, nc1, 3, 1, 1, conv) },
		"MaxPool2x2Into":     func() { MaxPool2x2Into(in, pool) },
		"ResizeBilinearInto": func() { ResizeBilinearInto(in, 96, 128, resize) },
	} {
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}
