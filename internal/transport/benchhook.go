package transport

// BenchEncodeFrame runs the transport's real send-side encode path once
// — pooled buffer out, frame encoded, buffer back to the pool — and
// returns the encoded frame size. It exists for benchmarks and the CI
// allocation gate, which need to measure the steady-state send path
// without standing up a TCP cluster; it is not part of the transport's
// operational API.
func BenchEncodeFrame(payload any) (int, error) {
	fb := getFrameBuf()
	f := wireFrame{Channel: "bench", From: 0, To: 1, Kind: "bench.op", Payload: payload, Bytes: 64}
	if err := encodeFrame(f, fb); err != nil {
		putFrameBuf(fb)
		return 0, err
	}
	n := len(fb.b)
	putFrameBuf(fb)
	return n, nil
}
