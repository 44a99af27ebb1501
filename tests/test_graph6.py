import hashlib

import pytest

from semitotal import (
    Graph6Error,
    cartesian_product,
    connected_graphs,
    emit_graph6,
    from_edge_list,
    generate,
    parse_graph6,
)


def test_parse_p2_hand_decoded():
    # 'A' = 65 -> n = 2; '_' = 95 -> 100000, so the single pair (0,1) is an edge
    g = parse_graph6("A_")
    assert g.n == 2
    assert g.adj[0] == 0b10 and g.adj[1] == 0b01


def test_parse_p2_no_edge():
    # '?' = 63 -> all-zero bits
    g = parse_graph6("A?")
    assert g.n == 2 and g.edge_count == 0


def test_emit_c4_round_trip():
    c4 = generate("cycle", 4)
    assert parse_graph6(emit_graph6(c4)).adj == c4.adj


def test_known_encoding_of_labeled_c4():
    # bits for edges (0,1),(1,2),(2,3),(0,3) in column order: 101101 -> 45 -> 'l'
    assert emit_graph6(generate("cycle", 4)) == "Cl"


def test_empty_input_rejected():
    with pytest.raises(Graph6Error, match="empty"):
        parse_graph6("")


def test_non_printable_byte_offset():
    with pytest.raises(Graph6Error, match="offset 1") as err:
        parse_graph6("A\x20")
    assert err.value.offset == 1


def test_non_ascii_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("Aé")


def test_truncated_body():
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("D")  # n=5 needs ceil(10/6)=2 body bytes


def test_trailing_bytes_rejected():
    with pytest.raises(Graph6Error, match="trailing") as err:
        parse_graph6("A_?")
    assert err.value.offset == 2


def test_nonzero_padding_rejected():
    # n=2 uses only the top bit of the body byte; set a padding bit instead
    with pytest.raises(Graph6Error, match="padding") as err:
        parse_graph6("A" + chr(63 + 0b000001))
    assert err.value.offset == 1


def test_zero_vertex_graph_rejected():
    with pytest.raises(Graph6Error, match="zero vertices"):
        parse_graph6("?")


def test_trailing_newline_tolerated():
    assert parse_graph6("A_\n").edge_count == 1


def test_minimal_header_boundary():
    small = generate("path", 62)
    assert len(emit_graph6(small)) == 1 + (62 * 61 // 2 + 5) // 6
    assert emit_graph6(small)[0] != "~"
    big = generate("path", 63)
    encoded = emit_graph6(big)
    assert encoded.startswith("~") and not encoded.startswith("~~")
    back = parse_graph6(encoded)
    assert back.adj == big.adj


def test_round_trip_random_graphs():
    for seed in range(20):
        g = generate("random", 9, p=0.5, seed=seed)
        assert parse_graph6(emit_graph6(g)).adj == g.adj


def test_round_trip_connected_catalog_small():
    for n in (2, 3, 4, 5):
        for g in connected_graphs(n):
            assert parse_graph6(emit_graph6(g)).adj == g.adj


def test_disconnected_round_trip():
    g = from_edge_list(5, [(0, 1), (2, 3)])
    assert parse_graph6(emit_graph6(g)).adj == g.adj


def _reference_body(g):
    """The upper triangle in column order, six bits per byte, bit by bit."""
    out, acc, filled = bytearray(), 0, 0
    for j in range(1, g.n):
        for i in range(j):
            acc, filled = acc << 1 | (g.adj[j] >> i & 1), filled + 1
            if filled == 6:
                out.append(acc + 63)
                acc, filled = 0, 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return out.decode("ascii")


def test_codec_matches_the_bit_by_bit_reference():
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    graphs += [generate("random", n, p=0.5, seed=n) for n in range(7, 71, 7)]
    for g in graphs:
        encoded = emit_graph6(g)
        header = 1 if g.n <= 62 else 4
        assert encoded[header:] == _reference_body(g), g.adj
        assert parse_graph6(encoded).adj == g.adj


def test_round_trip_at_the_product_cap():
    # the digest was taken with the bit-by-bit codec that the binascii one
    # replaced, so it pins the bytes, not only the round trip
    g = cartesian_product(generate("cycle", 64), generate("cycle", 64)).graph
    encoded = emit_graph6(g)
    assert len(encoded) == 1_397_764
    digest = hashlib.sha256(encoded.encode("ascii")).hexdigest()
    assert digest == "3a3c3357d7d8a22684a5b861f744e3b451b1915c771f43d3fade25c9b56e60d7"
    assert parse_graph6(encoded).adj == g.adj


def test_long_header_body_errors_keep_their_offsets():
    # n = 63 takes the 4-byte header; its 1,953 bits leave 3 padding bits
    # in the last of 326 body bytes, at offset 4 + 325; set the first one
    encoded = emit_graph6(generate("path", 63)).encode("ascii")
    assert len(encoded) == 330
    padded = encoded[:-1] + bytes([63 + (encoded[-1] - 63 | 0b100)])
    with pytest.raises(Graph6Error, match="padding") as err:
        parse_graph6(padded)
    assert err.value.offset == 329
    bad = encoded[:100] + b"\x20" + encoded[101:]
    with pytest.raises(Graph6Error, match="non-printable graph6 byte 0x20") as err:
        parse_graph6(bad)
    assert err.value.offset == 100
