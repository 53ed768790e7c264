package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hcilab/distscroll/internal/rf"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// TestHubSparseAndDenseIds mixes ids from the dense table (including the
// growth boundaries) with ids at and above denseLimit, which live in the
// sparse store, and checks that both routing entry points agree on session
// identity, lookup, registration order and the aggregate counters.
func TestHubSparseAndDenseIds(t *testing.T) {
	ids := []uint32{0, 1, denseLimit, 1<<32 - 1, 7, 8, denseLimit - 1, denseLimit + 1, 1 << 31, 4096, 9}
	const rounds = 3
	var msgs []rf.Message
	for seq := uint16(0); seq < rounds; seq++ {
		for _, id := range ids {
			msgs = append(msgs, rf.Message{Kind: rf.MsgScroll, Device: id, Seq: seq})
		}
	}

	for _, mode := range []string{"Consume", "ConsumeBatch"} {
		t.Run(mode, func(t *testing.T) {
			h := NewHub(false)
			routed := make(map[uint32]*Session)
			if mode == "Consume" {
				for _, m := range msgs {
					h.Consume(m, time.Millisecond)
					s, ok := h.Lookup(m.Device)
					if !ok {
						t.Fatalf("device %d: no session after Consume", m.Device)
					}
					routed[m.Device] = s
				}
			} else {
				// Several batches, so later batches route through sessions
				// registered by earlier ones.
				for lo := 0; lo < len(msgs); lo += 4 {
					hi := min(lo+4, len(msgs))
					h.ConsumeBatch(msgs[lo:hi], time.Millisecond, func(s *Session, m rf.Message) {
						if prev, ok := routed[m.Device]; ok && prev != s {
							t.Errorf("device %d routed to two sessions", m.Device)
						}
						routed[m.Device] = s
					})
				}
			}

			for _, id := range ids {
				s := h.Session(id)
				if s.Device() != id || routed[id] != s {
					t.Fatalf("device %d: Session %p (device %d), routed %p", id, s, s.Device(), routed[id])
				}
				if got, ok := h.Lookup(id); !ok || got != s {
					t.Fatalf("device %d: Lookup %p ok=%v, want %p", id, got, ok, s)
				}
				if st, ok := h.DeviceStats(id); !ok || st.Decoded != rounds || st.MissedSeq != 0 {
					t.Fatalf("device %d stats: %+v ok=%v", id, st, ok)
				}
			}
			for _, id := range []uint32{2, denseLimit + 2, 1<<32 - 2} {
				if _, ok := h.Lookup(id); ok {
					t.Fatalf("unregistered device %d has a session", id)
				}
			}
			devs := h.Devices()
			if len(devs) != len(ids) {
				t.Fatalf("devices %v, want %v", devs, ids)
			}
			for i := range ids {
				if devs[i] != ids[i] {
					t.Fatalf("devices %v, want registration order %v", devs, ids)
				}
			}

			want := uint64(len(ids) * rounds)
			if st := h.Stats(); st.Devices != len(ids) || st.Decoded != want || st.MissedSeq != 0 {
				t.Fatalf("stats: %+v, want %d devices and %d decoded", st, len(ids), want)
			}
			snap := telemetry.NewSnapshot()
			if n := h.Collect(snap).Devices; n != len(ids) {
				t.Fatalf("Collect counted %d sessions, want %d", n, len(ids))
			}
			if got := snap.Counters[telemetry.MetricHubDecoded]; got != want {
				t.Fatalf("collected %d decoded frames, want %d", got, want)
			}
		})
	}
}

// registrationBytes returns the heap bytes allocated per registration when
// n fresh sequential ids are registered into a new hub.
func registrationBytes(n int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := NewHub(false)
	for id := uint32(1); id <= uint32(n); id++ {
		h.Session(id)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestHubRegistrationBytesLinear pins registration as amortised O(1): the
// bytes allocated per new device may not grow with the fleet. Copying the
// table on every registration makes the per-device figure grow about 10×
// per decade of devices.
func TestHubRegistrationBytesLinear(t *testing.T) {
	small, large := registrationBytes(10_000), registrationBytes(100_000)
	t.Logf("bytes per registration: %.0f at 10k devices, %.0f at 100k", small, large)
	if large > 2*small {
		t.Fatalf("bytes per registration grew from %.0f at 10k devices to %.0f at 100k; want within 2×", small, large)
	}
}

// TestHubConcurrentRegistration races registration against lookup and
// routing while the dense table grows through several doublings. Every
// caller must see one session per id, Devices must list each id once, and
// no frame may be lost. Run it under -race.
func TestHubConcurrentRegistration(t *testing.T) {
	const (
		registrars = 4
		span       = 1500 // each registrar's dense range; ranges overlap by half
		denseIDs   = span * (registrars + 1) / 2
		frames     = 4 // per device
	)
	sparse := []uint32{denseLimit, denseLimit + 3, 1 << 31, 1<<32 - 1}
	var all []uint32
	for id := uint32(0); id < denseIDs; id++ {
		all = append(all, id)
	}
	all = append(all, sparse...)

	h := NewHub(false)
	var wg sync.WaitGroup
	var done atomic.Bool
	start := make(chan struct{}) // released once every goroutine is running

	// Registrars walk overlapping ranges, alternately up and down, so two
	// of them race for each id and growth happens from both directions.
	seen := make([]map[uint32]*Session, registrars)
	for r := 0; r < registrars; r++ {
		ids := append([]uint32{}, all[r*span/2:r*span/2+span]...)
		ids = append(ids, sparse...)
		if r%2 == 1 {
			for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
		seen[r] = make(map[uint32]*Session, len(ids))
		wg.Add(1)
		go func(r int, ids []uint32) {
			defer wg.Done()
			<-start
			for _, id := range ids {
				seen[r][id] = h.Session(id)
			}
		}(r, ids)
	}

	// Two routers own disjoint device sets (one device's frames must come
	// from one goroutine): even ids go through Consume, odd ids through
	// ConsumeBatch. Each records the session its frames reached.
	routed := make([]map[uint32]*Session, 2)
	for c := 0; c < 2; c++ {
		var msgs []rf.Message
		for seq := uint16(0); seq < frames; seq++ {
			for _, id := range all {
				if int(id%2) == c {
					msgs = append(msgs, rf.Message{Kind: rf.MsgHeartbeat, Device: id, Seq: seq})
				}
			}
		}
		routed[c] = make(map[uint32]*Session)
		wg.Add(1)
		go func(c int, msgs []rf.Message) {
			defer wg.Done()
			<-start
			if c == 0 {
				for _, m := range msgs {
					h.Consume(m, time.Millisecond)
					s, ok := h.Lookup(m.Device)
					if !ok {
						t.Errorf("device %d: no session after Consume", m.Device)
						return
					}
					routed[c][m.Device] = s
				}
				return
			}
			for lo := 0; lo < len(msgs); lo += 16 {
				hi := min(lo+16, len(msgs))
				h.ConsumeBatch(msgs[lo:hi], time.Millisecond, func(s *Session, m rf.Message) {
					if prev, ok := routed[c][m.Device]; ok && prev != s {
						t.Errorf("device %d: batch routed to two sessions", m.Device)
					}
					routed[c][m.Device] = s
				})
			}
		}(c, msgs)
	}

	// Readers poll Lookup and Devices while the table grows; a session
	// once seen for an id must never change.
	looked := make([]map[uint32]*Session, 2)
	var readers sync.WaitGroup
	for r := range looked {
		looked[r] = make(map[uint32]*Session)
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			<-start
			for !done.Load() {
				for _, id := range all {
					s, ok := h.Lookup(id)
					if !ok {
						continue
					}
					if prev, had := looked[r][id]; had && prev != s {
						t.Errorf("device %d: Lookup returned two sessions", id)
						return
					}
					looked[r][id] = s
				}
				_ = h.Devices()
			}
		}(r)
	}
	close(start)
	wg.Wait()
	done.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}

	check := func(who string, got map[uint32]*Session) {
		t.Helper()
		for id, s := range got {
			if want, _ := h.Lookup(id); s != want {
				t.Fatalf("%s: device %d resolved to %p, hub holds %p", who, id, s, want)
			}
		}
	}
	for r := range seen {
		check("registrar", seen[r])
	}
	for c := range routed {
		check("router", routed[c])
	}
	for r := range looked {
		check("reader", looked[r])
	}

	devs := h.Devices()
	listed := make(map[uint32]int, len(devs))
	for _, id := range devs {
		listed[id]++
	}
	if len(devs) != len(all) || len(listed) != len(all) {
		t.Fatalf("Devices lists %d ids (%d distinct), want %d", len(devs), len(listed), len(all))
	}
	for _, id := range all {
		if listed[id] != 1 {
			t.Fatalf("device %d listed %d times", id, listed[id])
		}
		if st, ok := h.DeviceStats(id); !ok || st.Decoded != frames || st.MissedSeq != 0 {
			t.Fatalf("device %d stats: %+v ok=%v, want %d decoded", id, st, ok, frames)
		}
	}
	if st := h.Stats(); st.Decoded != uint64(len(all)*frames) {
		t.Fatalf("decoded %d frames, want %d", st.Decoded, len(all)*frames)
	}
}
