"""Known-bad: only the backend module itself may import sqlite3."""

import sqlite3  # expect: backend-seam
