"""threecpt: an RGBZ (color + depth) video streaming toolkit.

Capture-side depth processing, superframe packing for 2D codecs, a TCP
relay with signaling, and receiver-side preparation of SLM-ready RGBZ
buffers. See README.md for the pipeline walkthrough.

The public names below are exported lazily (PEP 562): ``threecpt.X`` and
``from threecpt import X`` import X's submodule on first use. So
``import threecpt`` loads no submodule, and a process that uses only the
relay (``rgbz-relay``) never imports numpy.
"""

import importlib

_EXPORTS = {
    "frames": (
        "ColorImage",
        "DepthMap",
        "DisparityRange",
        "Orientation",
        "PixelFormat",
        "RgbzFrame",
        "StreamHeader",
        "apply_orientation",
        "dequantize_disparity",
        "fill_depth_gaps",
        "quantize_disparity",
        "suppress_background",
    ),
    "superframe": ("Superframe", "pack_superframe", "superframe_byte_size", "unpack_superframe"),
    "codec": ("CodecId", "EncodedAccessUnit", "ExternalSession", "ref_decode", "ref_encode", "ref_work"),
    "transport": (
        "FramePacket",
        "PacketDecoder",
        "PacketHeader",
        "encode_packet",
        "recv_stream",
        "send_stream",
    ),
    "relay": ("ChannelGrant", "RelayServer", "attach", "register_channel"),
    "replay": ("SlmBuffer", "prepare_for_replay", "sink_consume"),
    "container": ("gen_synthetic", "read_container", "write_container"),
    "latency": ("LatencyReport",),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
