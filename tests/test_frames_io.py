import re

import numpy as np
import numpy.testing as npt
import pytest

import msgdt as mg
from msgdt.frames import export_frames, ingest_frames, read_pgm, write_pgm


def test_single_frame_values(tmp_path):
    frame = np.array([[0.0, 128.0], [255.0, 64.0]])
    write_pgm(frame, tmp_path / "f.pgm")
    t = ingest_frames(tmp_path)
    assert t.dims == (2, 2, 1)
    npt.assert_array_equal(t.data[0], frame)


def test_roundtrip_lossless_for_integer_tensors(tmp_path):
    rng = np.random.default_rng(0)
    t = mg.Tensor3(rng.integers(0, 256, size=(5, 6, 4)).astype(np.float64))
    export_frames(t, tmp_path / "frames")
    back = ingest_frames(tmp_path / "frames")
    assert np.array_equal(back.data, t.data)


def test_lexicographic_order(tmp_path):
    for name, value in [("b.pgm", 2.0), ("a.pgm", 1.0), ("c.pgm", 3.0)]:
        write_pgm(np.full((2, 2), value), tmp_path / name)
    t = ingest_frames(tmp_path)
    npt.assert_array_equal(t.data[:, 0, 0], [1.0, 2.0, 3.0])


def test_header_comments_supported(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x05\x09")
    npt.assert_array_equal(read_pgm(path), [[5.0, 9.0]])


def test_rejects_non_p5(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(ValueError, match="magic"):
        read_pgm(path)


def test_rejects_truncated(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


@pytest.mark.parametrize("header", [b"P5", b"P5\n4", b"P5\n4 4\n# no maxval\n"])
def test_rejects_truncated_header(tmp_path, header):
    path = tmp_path / "head.pgm"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=r"head\.pgm: truncated PGM header"):
        read_pgm(path)


def test_rejects_wide_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ValueError, match="8-bit"):
        read_pgm(path)


def test_rejects_mixed_dimensions(tmp_path):
    write_pgm(np.zeros((2, 2)), tmp_path / "a.pgm")
    write_pgm(np.zeros((3, 2)), tmp_path / "b.pgm")
    with pytest.raises(ValueError, match="mixed"):
        ingest_frames(tmp_path)


def test_rejects_empty_directory(tmp_path):
    with pytest.raises(ValueError, match="no .pgm"):
        ingest_frames(tmp_path)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_write_refuses_a_frame_that_is_not_2d(tmp_path, shape):
    with pytest.raises(ValueError, match=re.escape(f"frame must be 2-d, got shape {shape}")):
        write_pgm(np.zeros(shape), tmp_path / "f.pgm")
    assert not (tmp_path / "f.pgm").exists()


def test_export_clips_and_rounds(tmp_path):
    t = mg.Tensor3(np.array([[[-3.2, 99.6]], [[255.9, 12.4]]]))
    export_frames(t, tmp_path)
    back = ingest_frames(tmp_path)
    npt.assert_array_equal(back.data, [[[0.0, 100.0]], [[255.0, 12.0]]])


def test_video_scale_dimensions(tmp_path):
    # 121 frames of 288 x 512 stack to dims (288, 512, 121)
    frame = np.zeros((288, 512), dtype=np.uint8)
    for k in range(121):
        (tmp_path / f"f{k:03d}.pgm").write_bytes(
            b"P5\n512 288\n255\n" + frame.tobytes()
        )
    t = ingest_frames(tmp_path)
    assert t.dims == (288, 512, 121)
