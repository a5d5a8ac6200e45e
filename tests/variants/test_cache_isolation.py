"""Variant labels keep a shared object cache from serving one family's
objects to another — the acceptance property for co-resident variants.
"""

import pytest

from repro.core.engine import Odin, fragment_content_key
from repro.instrument.coverage import OdinCov
from repro.programs.registry import get_program
from repro.service.cache import InMemoryCodeCache, PersistentCodeCache
from repro.variants.builder import VariantBuilder
from repro.fuzz.executor import PRESERVED
from repro.variants.spec import FAMILY_CLEAN, FAMILY_COVERAGE, FAMILY_SANITIZED


class TestContentKeys:
    def test_variant_label_changes_every_fragment_key(self):
        program = get_program("json")
        engine = Odin(program.compile(), preserve=PRESERVED)
        for fragment in engine.fragdef.fragments:
            text = engine._split_fragment(engine.module, fragment)
            keys = {
                fragment_content_key(text, 2, "", label)
                for label in ("", FAMILY_CLEAN, FAMILY_COVERAGE, FAMILY_SANITIZED)
            }
            assert len(keys) == 4  # every label gets its own key space

    def test_same_label_is_deterministic(self):
        program = get_program("json")
        engine = Odin(program.compile(), preserve=PRESERVED)
        fragment = engine.fragdef.fragments[0]
        text = engine._split_fragment(engine.module, fragment)
        assert fragment_content_key(
            text, 2, "", "clean"
        ) == fragment_content_key(text, 2, "", "clean")


class TestSharedObjectCache:
    def test_families_never_alias_in_a_shared_cache(self):
        program = get_program("json")
        shared = InMemoryCodeCache()
        builder = VariantBuilder(
            program.compile, preserve=PRESERVED, object_cache=shared
        )
        builder.build()

        # An independent, cache-less clean build is the ground truth: if
        # the shared cache had served an instrumented family's object to
        # the clean engine (or vice versa), the clean image would differ.
        reference = Odin(program.compile(), preserve=PRESERVED)
        reference.initial_build()
        clean_fp = builder.build_for(
            FAMILY_CLEAN
        ).engine.executable_fingerprint()
        assert clean_fp == reference.executable_fingerprint()

        # And the instrumented families genuinely differ from clean.
        cov_fp = builder.build_for(
            FAMILY_COVERAGE
        ).engine.executable_fingerprint()
        san_fp = builder.build_for(
            FAMILY_SANITIZED
        ).engine.executable_fingerprint()
        assert len({clean_fp, cov_fp, san_fp}) == 3

    def test_persistent_cache_isolates_variants(self, tmp_path):
        # Same fragment bytes stored under the "clean" label must miss
        # when probed under another family's label.
        program = get_program("json")
        engine = Odin(program.compile(), preserve=PRESERVED)
        fragment = engine.fragdef.fragments[0]
        text = engine._split_fragment(engine.module, fragment)
        from repro.core.engine import InlineFragmentCompiler

        clean_key = fragment_content_key(text, 2, "", "clean")
        other_key = fragment_content_key(text, 2, "", "sanitized")
        obj = InlineFragmentCompiler().compile_batch(
            [(engine._fragment_name(fragment), text)], 2
        )[0]
        cache = PersistentCodeCache(str(tmp_path / "cache"))
        cache.put(clean_key, obj)
        assert cache.get(clean_key) is not None
        assert cache.get(other_key) is None
