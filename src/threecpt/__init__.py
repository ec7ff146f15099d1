"""threecpt: an RGBZ (color + depth) video streaming toolkit.

Capture-side depth processing, superframe packing for 2D codecs, a TCP
relay with signaling, and receiver-side preparation of SLM-ready RGBZ
buffers. See README.md for the pipeline walkthrough.
"""

from .frames import (
    ColorImage,
    DepthMap,
    DisparityRange,
    Orientation,
    PixelFormat,
    RgbzFrame,
    StreamHeader,
    apply_orientation,
    dequantize_disparity,
    fill_depth_gaps,
    quantize_disparity,
    suppress_background,
)
from .superframe import (
    Superframe,
    pack_superframe,
    superframe_byte_size,
    unpack_superframe,
)
from .codec import (
    CodecId,
    EncodedAccessUnit,
    ExternalSession,
    ref_decode,
    ref_encode,
    ref_work,
)
from .transport import (
    FramePacket,
    PacketDecoder,
    PacketHeader,
    encode_packet,
    recv_stream,
    send_stream,
)
from .relay import ChannelGrant, RelayServer, attach, register_channel
from .replay import SlmBuffer, prepare_for_replay, sink_consume
from .container import gen_synthetic, read_container, write_container
from .latency import LatencyReport

__version__ = "0.1.0"
