package dnn

import (
	"testing"

	"repro/internal/mathx"
	"repro/internal/testenv"
)

var (
	sinkTensor *Tensor
	sinkDets   []Detection
)

// BenchmarkConv2D times the detector's two 3x3 layers at their
// functional sizes: 3->8 channels at 48x64 and 8->8 at 24x32.
func BenchmarkConv2D(b *testing.B) {
	d := NewDetector(ArchSSD512, 1)
	rng := mathx.NewRNG(3)
	for _, l := range []struct {
		name    string
		in      *Tensor
		w, bias []float32
	}{
		{"3to8_48x64", randTensor(rng, 3, 48, 64), d.w1, d.b1},
		{"8to8_24x32", randTensor(rng, nc1, 24, 32), d.w2, d.b2},
	} {
		b.Run(l.name, func(b *testing.B) {
			var dst Tensor
			Conv2DInto(l.in, l.w, l.bias, len(l.bias), 3, 1, 1, &dst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkTensor = Conv2DInto(l.in, l.w, l.bias, len(l.bias), 3, 1, 1, &dst)
			}
		})
	}
}

// BenchmarkDetectorInfer times one functional inference over a camera
// frame of the scripted drive.
func BenchmarkDetectorInfer(b *testing.B) {
	snap := testenv.Scenario().At(2)
	im := testenv.Camera().Capture(&snap).Image
	img := &Tensor{C: 3, H: im.H, W: im.W, Data: im.Pix}
	d := NewDetector(ArchSSD512, 0xDE7EC7)
	sinkDets = d.Infer(img)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDets = d.Infer(img)
	}
}
