package adc

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hcilab/distscroll/internal/sim"
)

func TestConvertKnownVoltages(t *testing.T) {
	c, err := New(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		volts float64
		want  uint16
	}{
		{0, 0},
		{5, MaxCode},
		{2.5, MaxCode / 2},
	}
	for _, tc := range cases {
		v := tc.volts
		if err := c.Connect(0, func() float64 { return v }); err != nil {
			t.Fatal(err)
		}
		code, err := c.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if int(code) != int(tc.want) && int(code) != int(tc.want)+1 && int(code)+1 != int(tc.want) {
			t.Errorf("Convert(%gV) = %d, want ~%d", tc.volts, code, tc.want)
		}
	}
}

func TestQuantisationErrorBounded(t *testing.T) {
	c, err := New(5, 1, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	var src float64
	if err := c.Connect(0, func() float64 { return src }); err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		src = float64(raw%5000) / 1000 // 0..5V
		code, err := c.Read(0)
		if err != nil {
			return false
		}
		back := c.Voltage(code)
		// 10-bit LSB is ~4.9 mV; allow 3 LSB for offset+gain+noise.
		return math.Abs(back-src) < 3*5.0/float64(MaxCode)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestClamping(t *testing.T) {
	c, err := New(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(0, func() float64 { return 12 }); err != nil {
		t.Fatal(err)
	}
	code, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if code != MaxCode {
		t.Fatalf("over-range code = %d, want %d", code, MaxCode)
	}
	if err := c.Connect(0, func() float64 { return -3 }); err != nil {
		t.Fatal(err)
	}
	code, err = c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("under-range code = %d, want 0", code)
	}
}

func TestUnconnectedChannelReadsNearZero(t *testing.T) {
	c, err := New(5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	code, err := c.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if code > 2 {
		t.Fatalf("floating channel code = %d", code)
	}
}

func TestChannelBounds(t *testing.T) {
	c, err := New(5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(2); err == nil {
		t.Fatal("want out-of-range read error")
	}
	if _, err := c.Read(-1); err == nil {
		t.Fatal("want negative-channel read error")
	}
	if err := c.Connect(5, func() float64 { return 0 }); err == nil {
		t.Fatal("want out-of-range connect error")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(0, 1, nil); err == nil {
		t.Fatal("want vref error")
	}
	if _, err := New(5, 0, nil); err == nil {
		t.Fatal("want channels error")
	}
	if _, err := New(5, MaxChannels+1, nil); err == nil {
		t.Fatal("want channels error above the PIC's analog inputs")
	}
	if c, err := New(5, MaxChannels, nil); err != nil || c.Channels() != MaxChannels {
		t.Fatalf("all %d inputs: %v", MaxChannels, err)
	}
}

func TestSampleCounter(t *testing.T) {
	c, err := New(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := c.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	if c.Samples() != 7 {
		t.Fatalf("samples = %d, want 7", c.Samples())
	}
}

func TestMonotoneCodes(t *testing.T) {
	c, err := New(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var src float64
	if err := c.Connect(0, func() float64 { return src }); err != nil {
		t.Fatal(err)
	}
	last := uint16(0)
	for v := 0.0; v <= 5.0; v += 0.01 {
		src = v
		code, err := c.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if code < last {
			t.Fatalf("codes not monotone: %d after %d at %.2fV", code, last, v)
		}
		last = code
	}
}
