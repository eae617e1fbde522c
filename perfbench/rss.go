package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// rssEvery is how often the sampler reads the resident set size.
const rssEvery = 5 * time.Millisecond

// rssSampler tracks the process's resident set size while the measured
// passes run. The kernel's own peak (getrusage) covers the whole
// process, set-up included; the sampler gives each pass its own peak.
type rssSampler struct {
	mu   sync.Mutex
	peak float64 // MB, since the last take
	stop chan struct{}
	done chan struct{}
}

// startRSS starts sampling, or returns nil where /proc/self/statm
// cannot be read.
func startRSS() *rssSampler {
	if _, ok := currentRSSMB(); !ok {
		return nil
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	mb, ok := currentRSSMB()
	if !ok {
		return
	}
	s.mu.Lock()
	s.peak = max(s.peak, mb)
	s.mu.Unlock()
}

// take samples once more and returns the peak since the last take,
// starting the next pass's peak afresh.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = 0
	return p
}

// close stops the sampler and waits until its goroutine has ended.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// currentRSSMB reads the resident set size from /proc/self/statm.
func currentRSSMB() (float64, bool) {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := bytes.Fields(blob)
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), true
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
