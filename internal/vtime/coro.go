//go:build go1.23

package vtime

import "iter"

// newCoroutine starts seq as a coroutine: resume switches to it directly and
// returns when it yields (ok) or ends (!ok), re-raising a panic that escaped
// seq; stop makes a pending yield return false and waits for seq to unwind.
//
// This file alone imports iter. Its build constraint raises its language
// version to the go1.23 that iter.Pull needs, so the module's go directive
// stays in step with benchmark/go.mod (CI checks that they agree).
func newCoroutine(seq func(yield func(struct{}) bool)) (resume func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](seq))
}
