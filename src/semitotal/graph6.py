"""Bit-exact graph6 codec.

Implements the nauty text format: a length header (1, 4, or 8 printable
bytes) followed by the upper triangle of the adjacency matrix in column
order, six bits per byte, each byte offset by 63.  Parsing is strict:
every byte must be printable (63..126), the body length must match the
header exactly, and padding bits must be zero.  Emission always uses the
minimal-length header.
"""

from binascii import a2b_base64, b2a_base64

from .graphs import Graph, from_edge_list

# The body's six-bit groups are base64's, in another alphabet: value v is
# byte v + 63 in graph6 and the v-th letter of _BASE64 in base64, so the
# codec moves the bits through int, bytes and binascii, never bit by bit.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_PRINTABLE = bytes(range(63, 127))
_TO_GRAPH6 = bytes.maketrans(_BASE64, _PRINTABLE)
_FROM_GRAPH6 = bytes.maketrans(_PRINTABLE, _BASE64)


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _check_printable(data: bytes) -> None:
    if not data.translate(None, delete=_PRINTABLE):
        return
    for i, byte in enumerate(data):  # only to find the first bad byte
        if not 63 <= byte <= 126:
            raise Graph6Error(f"non-printable graph6 byte {byte:#04x}", offset=i)


def _parse_header(data: bytes) -> tuple[int, int]:
    """Return (n, body offset)."""
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) < 2:
        raise Graph6Error("truncated extended length header", offset=1)
    if data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated 3-byte length header", offset=len(data))
        n = 0
        for i in range(1, 4):
            n = n << 6 | (data[i] - 63)
        return n, 4
    if len(data) < 8:
        raise Graph6Error("truncated 6-byte length header", offset=len(data))
    n = 0
    for i in range(2, 8):
        n = n << 6 | (data[i] - 63)
    return n, 8


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (an optional trailing newline is tolerated)."""
    if isinstance(text, bytes):
        data = text
    else:
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("non-ASCII graph6 input", offset=exc.start) from None
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6Error("empty graph6 input", offset=0)
    _check_printable(data)
    n, body = _parse_header(data)
    if n == 0:
        raise Graph6Error("graph6 header encodes zero vertices", offset=0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - body < nbytes:
        raise Graph6Error(
            f"adjacency body truncated: need {nbytes} bytes, have {len(data) - body}",
            offset=len(data),
        )
    if len(data) - body > nbytes:
        raise Graph6Error("unexpected trailing bytes after adjacency body", offset=body + nbytes)
    # The body's bits as a string of "0" and "1", nbits of the upper
    # triangle in column order, then the padding.
    groups = data[body:].translate(_FROM_GRAPH6)
    raw = a2b_base64(groups + b"A" * (-nbytes % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    # Pad bits beyond the upper triangle must be zero.
    k = bits.find("1", nbits, nbytes * 6)
    if k >= 0:
        raise Graph6Error("nonzero padding bit", offset=body + k // 6)
    edges = []
    start = 0  # bit of the pair (0, j)
    for j in range(1, n):
        i = bits.find("1", start, start + j)
        while i >= 0:
            edges.append((i - start, j))
            i = bits.find("1", i + 1, start + j)
        start += j
    return from_edge_list(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph with the minimal-length header."""
    n = g.n
    if n <= 62:
        header = [n + 63]
    elif n <= 258047:
        header = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        header = [126, 126] + [(n >> s & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    nbits = n * (n - 1) // 2
    if not nbits:
        return bytes(header).decode("ascii")
    # Column j holds bits i = 0..j-1 of adj[j], lowest first: bin of the
    # row's low j bits under a leading 1, reversed, less the "0b1".
    adj = g.adj
    bits = "".join([bin(adj[j] & (1 << j) - 1 | 1 << j)[:2:-1] for j in range(1, n)])
    pad = -nbits % 24  # whole base64 quanta, so no "=" is emitted
    raw = (int(bits, 2) << pad).to_bytes((nbits + pad) // 8, "big")
    body = b2a_base64(raw, newline=False)[: (nbits + 5) // 6].translate(_TO_GRAPH6)
    return (bytes(header) + body).decode("ascii")
