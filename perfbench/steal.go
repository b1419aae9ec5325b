package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// readSteal returns the host-wide steal and total CPU ticks from
// /proc/stat: steal is time the hypervisor ran other guests while this
// one had work. ok is false where the counters are not available.
func readSteal() (steal, total int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for _, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return steal, total, true
}

// stealWatch samples the steal share of consecutive windows.
type stealWatch struct {
	done   chan struct{}
	result chan []float64
}

// watchSteal starts sampling at window boundaries from now on.
func watchSteal() *stealWatch {
	sw := &stealWatch{done: make(chan struct{}), result: make(chan []float64, 1)}
	go func() {
		var shares []float64
		s0, t0, ok := readSteal()
		sample := func() {
			s1, t1, ok1 := readSteal()
			if ok && ok1 && t1 > t0 {
				shares = append(shares, float64(s1-s0)/float64(t1-t0))
			} else {
				shares = append(shares, 0)
			}
			s0, t0, ok = s1, t1, ok1
		}
		tick := time.NewTicker(windowWidth)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-sw.done:
				sample() // the final, partial window
				sw.result <- shares
				return
			}
		}
	}()
	return sw
}

// stop ends the sampling and returns each window's steal share.
func (sw *stealWatch) stop() []float64 {
	close(sw.done)
	return <-sw.result
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
