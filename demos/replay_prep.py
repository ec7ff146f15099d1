"""Display-side geometry chain: frame -> 2048x2048 SLM element buffer.

Takes one synthetic 640x480 frame through replay.prepare_for_replay, which
upscales it 2x straight into its window, centered in the 2048x1024 field
at the top of the zero 2048x2048 modulator buffer. Then runs the sink
validator and prints its stats and a per-channel summary of the window.
Pass a directory argument to also dump the color plane (PPM) and depth
plane (PGM) for inspection:

    python demos/replay_prep.py [dump_dir]
"""

import sys

import numpy as np

from threecpt import container, replay


def main():
    dump_dir = sys.argv[1] if len(sys.argv) > 1 else None
    hdr, frames = container.gen_synthetic(640, 480, (30, 1), 1, "orbiting-sphere")

    buf = replay.prepare_for_replay(frames[0], hdr.range)
    print(f"source {replay.SOURCE_WIDTH}x{replay.SOURCE_HEIGHT}"
          f" -> upscaled {replay.UPSCALED_WIDTH}x{replay.UPSCALED_HEIGHT}"
          f" -> field {replay.FIELD_WIDTH}x{replay.FIELD_HEIGHT}"
          f" (embedded at x={replay.EMBED_X}, y={replay.EMBED_Y})"
          f" -> SLM {replay.SLM_WIDTH}x{replay.SLM_HEIGHT}")
    print(f"buffer: {len(buf.tobytes())} bytes "
          f"({replay.SLM_BUFFER_BYTES} expected), 4 bytes per element (R,G,B,Z)")

    stats = replay.sink_consume(buf, dump_dir=dump_dir)
    total = replay.SLM_WIDTH * replay.SLM_HEIGHT
    print(f"\nsink accepted the buffer (zero surround + embed window verified)")
    print(f"nonzero elements: {stats.nonzero_elements} "
          f"({100 * stats.nonzero_elements / total:.1f}% of the modulator)")
    print(f"embed-window checksum (adler32): 0x{stats.checksum_adler32:08x}")
    window = buf.elements[replay.EMBED_Y : replay.EMBED_Y + replay.UPSCALED_HEIGHT,
                          replay.EMBED_X : replay.EMBED_X + replay.UPSCALED_WIDTH]
    for i, name in enumerate("RGBZ"):
        hist = np.bincount(window[:, :, i].ravel(), minlength=256)
        lit = int(hist[1:].sum())
        print(f"channel {name}: {lit} non-black samples, "
              f"peak code {int(hist[1:].argmax()) + 1 if lit else 0}")
    if dump_dir:
        print(f"\nwrote frame_0.ppm (color) and frame_0.pgm (depth) to {dump_dir}")


if __name__ == "__main__":
    main()
