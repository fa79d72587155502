package main

import (
	"crypto/sha256"
	"hash"
	"sort"
	"time"
)

// calibrator times a fixed standard-library kernel that shares no code
// with the repository: SHA-256 hashing, sorting and map updates over
// preallocated buffers, then building and walking binary trees, which
// exercises the allocator and the collector. On a shared machine the
// host's speed drifts by ±20 % over a minute or two and the kernel
// drifts with it; the end-to-end host-time metrics are expressed in
// multiples of its median time in the same run, which cancels most of
// that drift.
type calibrator struct {
	h    hash.Hash
	sum  [sha256.Size]byte
	buf  []byte
	keys []int
	m    map[int]int
	sink int
}

func newCalibrator() *calibrator {
	c := &calibrator{
		h:    sha256.New(),
		buf:  make([]byte, 1<<16),
		keys: make([]int, 20000),
		m:    make(map[int]int, 5000),
	}
	for i := range c.buf {
		c.buf[i] = byte(i * 31)
	}
	c.run() // size the map's buckets once
	return c
}

// run executes the kernel once and returns its host time.
func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	c.h.Reset()
	for k := 0; k < 40; k++ {
		c.h.Write(c.buf)
	}
	for i := range c.keys {
		c.keys[i] = (i * 7919) % 20011
	}
	sort.Ints(c.keys)
	clear(c.m)
	for i, k := range c.keys {
		c.m[k%5000] += i
	}
	c.sink += len(c.m) + int(c.h.Sum(c.sum[:0])[0])
	for k := 0; k < 6; k++ {
		c.sink += buildTree(13).sum()
	}
	return time.Since(t0)
}

type treeNode struct {
	left, right *treeNode
	v           int
}

func buildTree(depth int) *treeNode {
	if depth == 0 {
		return &treeNode{v: 1}
	}
	return &treeNode{left: buildTree(depth - 1), right: buildTree(depth - 1), v: depth}
}

func (n *treeNode) sum() int {
	if n == nil {
		return 0
	}
	return n.v + n.left.sum() + n.right.sum()
}
