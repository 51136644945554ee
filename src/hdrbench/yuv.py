"""Raw planar 4:2:0 YUV I/O at 8-bit and 10-bit sample depths.

Files are headerless: plane order is Y, U, V per frame, 8-bit samples are
single bytes, 10-bit samples are 16-bit little-endian words with the top
six bits zero. All format metadata (dimensions and depth) comes from the
caller, never from file content.

``read_pieces`` is the one place that reads and range-checks samples. It
streams a range of a file's frames in pieces of at most ``PIECE_SAMPLES``
samples, each within one plane, through one read-only buffer that its
caller owns, and checks each piece once while it is in cache.
``run_spans`` splits a clip's frames into contiguous spans, one per usable
CPU, and runs a piece loop over each on a thread of its own: the
file-to-file conversion and scoring use it. No shipped path reads whole
frames; ``iter_frames`` assembles them from the pieces, and remains as a
reader for the tests and the benchmark.

``open_output`` is the one output policy for files streamed from an input
(depth conversion, mock encode and decode): it refuses the input as output,
writes a new file in place of an old one, and removes the file that a failed
write leaves behind. ``write_all`` is the one raw write loop, which resumes a
short write: depth conversion's pieces and the store's checkpoints go through it.
"""

from __future__ import annotations

import contextlib
import os
import stat
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import ValidationError

# Samples per piece of ``read_pieces``: a piece and the buffers its consumers
# derive from it (a uint16 scratch, an int32 square) fit in a core's L2 cache.
PIECE_SAMPLES = 1 << 18


class YuvFormatError(ValidationError):
    """Invalid plane format parameters."""


class FileSizeError(ValidationError):
    """File size is not a whole number of frames."""


class SampleRangeError(ValidationError):
    """A sample value exceeds the declared bit depth."""


@dataclass(frozen=True)
class PlaneFormat:
    """Geometry and depth of one 4:2:0 frame."""

    width: int
    height: int
    bit_depth: int

    def __post_init__(self):
        if self.bit_depth not in (8, 10):
            raise YuvFormatError(f"bit_depth must be 8 or 10, got {self.bit_depth}")
        if self.width <= 0 or self.height <= 0:
            raise YuvFormatError(f"dimensions must be positive, got {self.width}x{self.height}")
        if self.width % 2 or self.height % 2:
            # 4:2:0 chroma planes need even luma dimensions
            raise YuvFormatError(f"dimensions must be even for 4:2:0, got {self.width}x{self.height}")

    @property
    def max_value(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def dtype(self) -> np.dtype:
        return np.dtype("u1") if self.bit_depth == 8 else np.dtype("<u2")

    @property
    def chroma_width(self) -> int:
        return self.width // 2

    @property
    def chroma_height(self) -> int:
        return self.height // 2

    @property
    def luma_samples(self) -> int:
        return self.width * self.height

    @property
    def chroma_samples(self) -> int:
        return self.chroma_width * self.chroma_height

    @property
    def frame_samples(self) -> int:
        return self.luma_samples + 2 * self.chroma_samples

    @property
    def frame_bytes(self) -> int:
        # width * height * 1.5 * bytes per sample, exactly
        return self.frame_samples * self.dtype.itemsize

    @property
    def piece_samples(self) -> int:
        """Size of the largest piece ``read_pieces`` yields: luma is the largest plane."""
        return min(PIECE_SAMPLES, self.luma_samples)

    def with_bit_depth(self, bit_depth: int) -> "PlaneFormat":
        return PlaneFormat(self.width, self.height, bit_depth)

    def planes(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Y, U and V as 2-D views of one frame's flat samples, in file order."""
        ny, nc = self.luma_samples, self.chroma_samples
        chroma = (self.chroma_height, self.chroma_width)
        return (
            samples[:ny].reshape(self.height, self.width),
            samples[ny : ny + nc].reshape(chroma),
            samples[ny + nc :].reshape(chroma),
        )


@dataclass(frozen=True, eq=False)
class Frame:
    """One planar 4:2:0 frame: its Y, U and V planes as 2-D arrays, at ``format``."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    format: PlaneFormat

    def planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.y, self.u, self.v


def frame_count(path: str | os.PathLike, fmt: PlaneFormat) -> int:
    """Number of whole frames in ``path``; rejects truncated files."""
    try:
        size = Path(path).stat().st_size
    except OSError as exc:
        raise FileSizeError(f"cannot read {path}: {exc}") from exc
    if size % fmt.frame_bytes:
        raise FileSizeError(
            f"{path}: size {size} is not a multiple of the {fmt.frame_bytes}-byte frame "
            f"({fmt.width}x{fmt.height}, {fmt.bit_depth}-bit)"
        )
    return size // fmt.frame_bytes


def read_pieces(
    path: str | os.PathLike,
    fmt: PlaneFormat,
    frames: range | None = None,
    buffer: np.ndarray | None = None,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(plane, start, samples)`` for every piece of ``frames``, in file order.

    A piece is a run of at most ``PIECE_SAMPLES`` samples of one plane
    (``plane`` is 0, 1, 2 for Y, U, V); ``start`` is the index of its first
    sample in the frame's flat Y, U, V samples, so a frame ends with the
    piece whose ``start + samples.size`` is ``fmt.frame_samples``.
    ``frames`` is a range of frame indices, the whole file when None; the
    reader seeks to its first frame and trusts the caller's count. Every
    piece is read into ``buffer`` (a flat array of at least
    ``fmt.piece_samples`` of ``fmt.dtype``, unchecked; a new one when None)
    and yielded read-only: it holds its
    samples only until the next piece is read, so a consumer uses it while
    it is still in cache and memory stays one piece. Each piece is
    range-checked once, by a single ``max`` scan; 8-bit files need none,
    because a byte cannot exceed 255. Errors name the frame and the sample
    index in the whole file.
    """
    if frames is None:
        frames = range(frame_count(path, fmt))
    if buffer is None:
        buffer = np.empty(fmt.piece_samples, dtype=fmt.dtype)
    samples = fmt.frame_samples
    check = fmt.dtype.itemsize * 8 > fmt.bit_depth  # a byte cannot exceed 255
    # (plane, start, writable slice, read-only view) for each piece of a frame
    layout = []
    offset = 0
    for plane, size in enumerate((fmt.luma_samples, fmt.chroma_samples, fmt.chroma_samples)):
        for first in range(0, size, PIECE_SAMPLES):
            raw = buffer[: min(PIECE_SAMPLES, size - first)]
            piece = raw.view()
            piece.setflags(write=False)
            layout.append((plane, offset + first, raw, piece))
        offset += size
    with open(path, "rb") as fh:
        fh.seek(frames.start * fmt.frame_bytes)
        for index in frames:
            for plane, start, raw, piece in layout:
                if fh.readinto(raw) != raw.nbytes:
                    raise FileSizeError(f"{path}: file ended inside frame {index}")
                if check and int(raw.max()) > fmt.max_value:
                    offender = int(np.flatnonzero(raw > fmt.max_value)[0])
                    raise SampleRangeError(
                        f"{path}: sample index {index * samples + start + offender} has value "
                        f"{int(raw[offender])} > {fmt.max_value} for declared {fmt.bit_depth}-bit depth"
                    )
                yield plane, start, piece


def iter_frames(path: str | os.PathLike, fmt: PlaneFormat) -> Iterator[Frame]:
    """Yield frames one at a time; memory stays O(one frame).

    Each frame is assembled from ``read_pieces`` into a read-only buffer of
    its own, so it stays valid after the next one is read.
    """
    for _, start, piece in read_pieces(path, fmt):
        if not start:
            raw = np.empty(fmt.frame_samples, dtype=fmt.dtype)
        stop = start + piece.size
        raw[start:stop] = piece
        if stop == fmt.frame_samples:
            raw.setflags(write=False)
            yield Frame(*fmt.planes(raw), fmt)


@contextlib.contextmanager
def open_output(dst: str | os.PathLike, src: str | os.PathLike) -> Iterator:
    """Open ``dst`` for writing a file streamed from ``src``; yield the file.

    A ``dst`` that is ``src`` (the same path, or a link to it) is refused. An
    old regular file at ``dst`` is unlinked and a new one written (the old one
    truncated, if the unlink fails); a symlink is written through. If the body
    fails, a regular ``dst`` is removed; a pipe or device is left as it is.
    """
    if os.path.exists(dst) and os.path.samefile(src, dst):
        raise ValidationError(f"output {dst} is the input {src}; write into another file")
    with contextlib.suppress(OSError):  # a new file is written faster than a truncated one
        if stat.S_ISREG(os.lstat(dst).st_mode):
            os.unlink(dst)
    with open(dst, "wb") as fh:
        try:
            yield fh
            fh.flush()
        except BaseException:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.unlink(dst)
            raise


def write_all(fd: int, data, offset: int | None = None) -> None:
    """Write every byte of the C-contiguous buffer ``data`` at ``offset`` of ``fd``,
    or at its file position when ``offset`` is None; a short write is resumed."""
    view = memoryview(data).cast("B")
    while view:
        written = os.write(fd, view) if offset is None else os.pwrite(fd, view, offset)
        view = view[written:]
        offset = None if offset is None else offset + written


def usable_cpus() -> int:
    """How many CPUs this process may run on: the spans of ``run_spans``,
    and the decoders the pipeline runs at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def run_spans(
    frames: int,
    buffers: Callable[[], object],
    work: Callable[[range, object, Callable[[], bool]], object],
) -> list:
    """Run ``work`` over contiguous spans of ``range(frames)``; return its results in span order.

    There are ``min(usable_cpus(), frames)`` spans. ``buffers()`` is called
    once per span, here in the calling thread, so that no worker allocates a
    buffer (each would grow a malloc arena of its own). Then
    ``work(span, buffers, stopped)`` runs the first span in the calling
    thread and every other span on a thread of its own: numpy's kernels,
    ``readinto`` and ``os.pwrite`` release the GIL. ``work`` calls
    ``stopped()`` once per piece and returns early when it is true: an
    earlier span has failed, or the caller was interrupted.

    Every thread is joined before this returns or raises, an interrupt of
    the calling thread included, so no worker outlives the call. A span
    stops at its first error and a later span's error does not stop an
    earlier span, so the error raised, that of the first span that failed,
    is the first one in file order.
    """
    count = min(usable_cpus(), frames)
    spans = [range(frames * k // count, frames * (k + 1) // count) for k in range(count)]
    states = [buffers() for _ in spans]
    results: list = [None] * count
    errors: list[BaseException | None] = [None] * count
    finished = [threading.Event() for _ in spans]
    failed = [count]  # spans after this index stop; -1 stops every span
    lock = threading.Lock()

    def stop_after(k: int) -> None:
        with lock:
            failed[0] = min(failed[0], k)

    def run(k: int) -> None:
        try:
            results[k] = work(spans[k], states[k], lambda: failed[0] < k)
        except BaseException as exc:  # raised in the calling thread once all are joined
            errors[k] = exc
            stop_after(k)
        finally:
            finished[k].set()

    def join_all() -> None:
        # Each span's own event, not Thread.join alone: before Python 3.13 a
        # join cut short by an interrupt marks the thread stopped while it
        # runs. The wait is timed so that this thread retakes the GIL now and
        # then: an interrupt that a span's thread received is raised here.
        interrupt = None
        for k, thread in enumerate(threads, start=1):
            while thread.ident is not None:  # started
                try:
                    if finished[k].wait(0.05):
                        thread.join()
                        break
                except BaseException as exc:  # the caller was interrupted: stop every span
                    stop_after(-1)
                    interrupt = interrupt or exc
        if interrupt is not None:
            raise interrupt

    threads = [threading.Thread(target=run, args=(k,), name=f"hdrbench-span-{k}") for k in range(1, count)]
    try:
        for thread in threads:
            thread.start()
        if count:
            run(0)
    except BaseException:  # a thread failed to start, or the caller was interrupted
        stop_after(-1)
        raise
    finally:
        join_all()
    for error in errors:
        if error is not None:
            raise error
    return results
