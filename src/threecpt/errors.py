"""Exception hierarchy shared across the toolkit."""


class ThreecptError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(ThreecptError):
    """An image, map, or buffer has impossible or mismatched dimensions."""


class FormatError(ThreecptError):
    """A serialized structure violates its layout contract."""


class RangeError(ThreecptError, ValueError):
    """A parameter lies outside the range the data it applies to spans."""


class UnfillableError(ThreecptError):
    """A depth map has no valid pixels to fill from."""


class BitstreamError(FormatError):
    """A codec payload is truncated or internally inconsistent."""


class AdapterError(ThreecptError):
    """A codec adapter was used outside its contract."""


class TranscoderError(ThreecptError):
    """An external transcoder child process failed."""


class DesyncError(ThreecptError):
    """Wire bytes lost packet alignment; the connection must be dropped."""


class VersionError(DesyncError):
    """Unsupported wire protocol version."""


class SanityError(DesyncError):
    """A wire field exceeds its sanity bound."""


class ProtocolError(ThreecptError):
    """Packets arrived in an order the stream contract forbids."""


class TransportError(ThreecptError):
    """The underlying connection failed mid-stream."""


class SignalingError(ThreecptError):
    """The signaling server rejected a request or is unreachable."""


class RelayAuthError(ThreecptError):
    """The relay rejected an attach preamble."""


class ContainerError(FormatError):
    """An .rgbz container file is malformed; message names the byte offset."""


class ValidationError(ThreecptError):
    """A buffer invariant check failed; message names the invariant."""
