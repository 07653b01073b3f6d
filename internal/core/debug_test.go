//go:build vectorh_debug

package core

import (
	"strings"
	"testing"
)

func TestReleaseWithoutPinPanics(t *testing.T) {
	p := &Partition{cur: &metaGen{}}
	g := p.cur
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("release without a pin did not panic under vectorh_debug")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "released below zero") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	p.release(g, nil)
}

func TestCloseWithPinHeldPanics(t *testing.T) {
	p := &Partition{cur: &metaGen{}}
	p.mu.RLock()
	gen := p.pinLocked()
	p.mu.RUnlock()
	m := &mscan{part: p, gen: gen}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("debugCheckUnpinned did not panic with a held pin")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "still pinned") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	debugCheckUnpinned(m)
}

func TestBalancedPinReleaseClean(t *testing.T) {
	p := &Partition{cur: &metaGen{}}
	p.mu.RLock()
	g := p.pinLocked()
	p.mu.RUnlock()
	p.release(g, nil)
	if n := g.refs; n != 0 {
		t.Fatalf("refs after balanced pin/release = %d, want 0", n)
	}
}
