"""Variant labels keep shared caches from serving one family's artifacts
to another — the acceptance property for co-resident variants.

Both cache layers are covered: the content-addressed object cache
(fragment content keys) and the link cache (image keys).
"""

import pytest

from repro.core.engine import Odin, fragment_content_key
from repro.instrument.coverage import OdinCov
from repro.linker.cache import LinkCache
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


class TestSharedLinkCache:
    def test_link_keys_are_variant_prefixed(self):
        program = get_program("json")
        shared = LinkCache()
        builder = VariantBuilder(
            program.compile, preserve=PRESERVED, link_cache=shared
        )
        builder.build()
        labels = {key[0] for key in shared._entries}
        assert labels == {
            f"variant={name}"
            for name in (FAMILY_CLEAN, FAMILY_COVERAGE, FAMILY_SANITIZED)
        }

    def test_identical_probe_state_still_misses_across_variants(self):
        # Clean and coverage-with-all-probes-disabled compile identical
        # fragment IR; only the variant label separates their images in a
        # shared link cache.
        program = get_program("json")
        shared = LinkCache()
        cache = InMemoryCodeCache()

        clean = Odin(
            program.compile(),
            preserve=PRESERVED,
            object_cache=cache,
            link_cache=shared,
            variant_label="clean",
        )
        clean.initial_build()

        other = Odin(
            program.compile(),
            preserve=PRESERVED,
            object_cache=cache,
            link_cache=shared,
            variant_label="other",
        )
        other.initial_build()

        # Identical probe state (none) and identical source: the images
        # are byte-identical, yet each variant linked its own.
        assert clean.executable_fingerprint() == other.executable_fingerprint()
        assert len(shared) == 2
        assert shared.hits == 0
