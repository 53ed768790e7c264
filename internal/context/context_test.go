package context

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hcilab/distscroll/internal/adxl311"
	"github.com/hcilab/distscroll/internal/sim"
)

func feedN(d *Detector, gx, gy float64, n int) Context {
	var c Context
	for i := 0; i < n; i++ {
		c = d.FeedG(gx, gy)
	}
	return c
}

func TestUnknownBeforeSettle(t *testing.T) {
	d := NewDetector(DefaultConfig())
	c := d.FeedG(0, 0)
	if c.Posture != PostureUnknown {
		t.Fatalf("posture after 1 sample: %v", c.Posture)
	}
}

func TestFlatDetection(t *testing.T) {
	d := NewDetector(DefaultConfig())
	c := feedN(d, 0.02, -0.03, 5)
	if c.Posture != PostureFlat {
		t.Fatalf("posture = %v", c.Posture)
	}
	if c.Hand != HandUnknown {
		t.Fatalf("hand on a table = %v", c.Hand)
	}
}

func TestHeldRightHand(t *testing.T) {
	d := NewDetector(DefaultConfig())
	// Reading posture: pitched up ~35°, rolled slightly left (right grip).
	gx := math.Sin(35 * math.Pi / 180)
	gy := -0.2
	c := feedN(d, gx, gy, 5)
	if c.Posture != PostureHeld {
		t.Fatalf("posture = %v", c.Posture)
	}
	if c.Hand != HandRight {
		t.Fatalf("hand = %v", c.Hand)
	}
}

func TestHeldLeftHand(t *testing.T) {
	d := NewDetector(DefaultConfig())
	c := feedN(d, 0.5, 0.2, 5)
	if c.Hand != HandLeft {
		t.Fatalf("hand = %v", c.Hand)
	}
}

func TestTiltedPosture(t *testing.T) {
	d := NewDetector(DefaultConfig())
	c := feedN(d, 0.1, 0.8, 5)
	if c.Posture != PostureTilted {
		t.Fatalf("posture = %v", c.Posture)
	}
}

func TestDebounceSuppressesBlips(t *testing.T) {
	d := NewDetector(DefaultConfig())
	feedN(d, 0.5, -0.2, 5) // settled: held/right
	// Two blip samples of a left roll: must not flip.
	c := feedN(d, 0.5, 0.3, 2)
	if c.Hand != HandRight {
		t.Fatalf("hand flipped on a blip: %v", c.Hand)
	}
	// Sustained change does flip.
	c = feedN(d, 0.5, 0.3, 3)
	if c.Hand != HandLeft {
		t.Fatalf("hand did not follow sustained change: %v", c.Hand)
	}
}

func TestMovingDetection(t *testing.T) {
	d := NewDetector(DefaultConfig())
	c := feedN(d, 0.4, -0.2, 10)
	if c.Moving {
		t.Fatal("static hold reported moving")
	}
	// Oscillating dynamic acceleration.
	rng := sim.NewRand(1)
	for i := 0; i < 10; i++ {
		c = d.FeedG(0.4+rng.Uniform(-0.4, 0.4), -0.2+rng.Uniform(-0.4, 0.4))
	}
	if !c.Moving {
		t.Fatal("oscillation not reported as moving")
	}
	// Settling again clears it.
	c = feedN(d, 0.4, -0.2, 10)
	if c.Moving {
		t.Fatal("moving flag stuck")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(p, h uint8, mv bool) bool {
		c := Context{
			Posture: Posture(p % 4),
			Hand:    Hand(h % 3),
			Moving:  mv,
		}
		return DecodeContext(c.Encode()) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFeedVoltagesPath(t *testing.T) {
	var a adxl311.Accel
	a.Init(nil)
	a.SetOrientation(adxl311.Orientation{Pitch: 0.6, Roll: -0.25})
	d := NewDetector(DefaultConfig())
	var c Context
	for i := 0; i < 5; i++ {
		c = d.FeedVoltages(a.VoltageX(), a.VoltageY())
	}
	if c.Posture != PostureHeld || c.Hand != HandRight {
		t.Fatalf("context = %+v", c)
	}
	if d.Samples() != 5 {
		t.Fatalf("samples = %d", d.Samples())
	}
}

func TestStrings(t *testing.T) {
	for _, p := range []Posture{PostureUnknown, PostureFlat, PostureHeld, PostureTilted} {
		if p.String() == "" {
			t.Fatalf("posture %d has empty name", p)
		}
	}
	for _, h := range []Hand{HandUnknown, HandRight, HandLeft} {
		if h.String() == "" {
			t.Fatalf("hand %d has empty name", h)
		}
	}
	c := Context{Posture: PostureHeld, Hand: HandRight, Moving: true}
	if c.String() == "" {
		t.Fatal("empty context string")
	}
}
