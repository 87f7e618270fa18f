"""Shared fixtures; the shared helpers are in ``helpers``."""

import pytest


@pytest.fixture
def minimal_topology():
    return {
        "nodes": [
            {"id": "10.0.0.1", "name": "E1", "role": "LER", "area": 1},
            {"id": "10.0.0.2", "name": "A1", "role": "ALER", "area": 1},
            {"id": "10.0.0.3", "name": "R1", "role": "AMRR", "area": 1},
        ],
        "edges": [
            {"a": "E1", "b": "A1"},
            {"a": "A1", "b": "R1"},
        ],
        "regions": {"MR1": {"ler": "E1", "cells": ["c1"]}},
    }
