"""Superframe packing and lossless codec round trip.

Renders one synthetic 640x480 frame, stacks it into the codec-facing
superframe (color over grayscale-replicated depth), encodes it with the
built-in lossless codec, and shows that the decode is bit-exact and how much
the run-length stage saves. Run with:

    python demos/codec_roundtrip.py
"""

import numpy as np

from threecpt import codec, container
from threecpt.superframe import pack_superframe, unpack_superframe


def main():
    hdr, frames = container.gen_synthetic(640, 480, (30, 1), 1, "orbiting-sphere")
    frame = frames[0]

    sf = pack_superframe(frame)
    raw = sf.tobytes()
    print(f"superframe: {sf.width}x{sf.height} RGB0 = {len(raw)} bytes")
    print(f"  top half    : color image ({frame.width}x{frame.height})")
    print(f"  bottom half : depth codes replicated to R=G=B (survives chroma "
          f"subsampling in lossy codecs)")

    au = codec.ref_encode(sf)
    ratio = len(raw) / len(au.payload)
    print(f"\nencoded access unit: {len(au.payload)} bytes "
          f"({ratio:.1f}x smaller), keyframe={au.keyframe}")

    back = codec.ref_decode(au, hdr)
    assert np.array_equal(back.data, sf.data)
    print("decode is bit-exact: OK")

    out = unpack_superframe(back, hdr)
    assert np.array_equal(out.color.data, frame.color.data)
    assert np.array_equal(out.depth.codes, frame.depth.codes)
    print("unpacked frame matches the source color and depth exactly: OK")


if __name__ == "__main__":
    main()
