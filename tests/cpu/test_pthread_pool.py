"""PthreadLzss keeps one engine (and its thread pool) alive across calls."""

from __future__ import annotations


from repro.cpu import PthreadLzss


def test_pool_persists_across_calls(text_data):
    p = PthreadLzss(n_threads=2)
    try:
        r1 = p.compress(text_data)
        engine = p._engine
        pool = engine._pool
        assert pool is not None
        r2 = p.compress(text_data)
        assert p._engine is engine and engine._pool is pool  # no churn
        assert r1.payload == r2.payload
        assert p.decompress(r2) == text_data
        assert p._engine is engine and engine._pool is pool
    finally:
        p.close()


def test_close_is_idempotent_and_releases(text_data):
    p = PthreadLzss(n_threads=2)
    p.compress(text_data)
    engine = p._engine
    p.close()
    assert p._engine is None and engine._pool is None
    p.close()


def test_context_manager_closes(text_data):
    with PthreadLzss(n_threads=2) as p:
        result = p.compress(text_data)
        assert p.decompress(result) == text_data
        engine = p._engine
    assert p._engine is None and engine._pool is None


def test_closed_instance_reopens_on_use(text_data):
    p = PthreadLzss(n_threads=2)
    p.compress(text_data)
    p.close()
    result = p.compress(text_data)  # transparently re-opens
    try:
        assert p._engine._pool is not None
        assert p.decompress(result) == text_data
    finally:
        p.close()
