#include "recover/file_util.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace ef::recover {

Status
ensure_dir(const std::string &dir)
{
    if (dir.empty())
        return Status::error(ErrorCode::kIoError,
                             "journal directory path is empty");
    // Create each path component in turn (mkdir -p).
    for (std::size_t i = 1; i <= dir.size(); ++i) {
        if (i != dir.size() && dir[i] != '/')
            continue;
        std::string prefix = dir.substr(0, i);
        if (prefix.empty() || prefix == "/")
            continue;
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            return Status::error(ErrorCode::kIoError,
                                 "cannot create directory '" + prefix +
                                     "': " + std::strerror(errno));
    }
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        return Status::error(ErrorCode::kIoError,
                             "'" + dir + "' is not a directory");
    return Status{};
}

Status
read_whole_file(const std::string &path, std::string *out,
                std::size_t spare)
{
    out->clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return Status::error(ErrorCode::kIoError,
                             "cannot open '" + path +
                                 "': " + std::strerror(errno));
    // One read of the whole file when its size is known up front.
    struct stat info;
    if (::fstat(fileno(f), &info) == 0 && info.st_size > 0) {
        out->reserve(static_cast<std::size_t>(info.st_size) + spare);
        out->resize(static_cast<std::size_t>(info.st_size));
        out->resize(std::fread(out->data(), 1, out->size(), f));
    }
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, n);
    bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) {
        out->clear();
        return Status::error(ErrorCode::kIoError,
                             "read error on '" + path +
                                 "': " + std::strerror(errno));
    }
    return Status{};
}

Status
fsync_parent_dir(const std::string &path)
{
    std::string dir = ".";
    std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos)
        dir = slash == 0 ? "/" : path.substr(0, slash);
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return Status::error(ErrorCode::kIoError,
                             "cannot open directory '" + dir +
                                 "': " + std::strerror(errno));
    bool ok = ::fsync(fd) == 0;
    ::close(fd);
    if (!ok)
        return Status::error(ErrorCode::kIoError,
                             "fsync of directory '" + dir +
                                 "' failed: " + std::strerror(errno));
    return Status{};
}

Status
truncate_file(const std::string &path, std::uint64_t bytes)
{
    if (::truncate(path.c_str(), static_cast<off_t>(bytes)) != 0)
        return Status::error(ErrorCode::kIoError,
                             "cannot truncate '" + path +
                                 "': " + std::strerror(errno));
    return Status{};
}

bool
file_exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace ef::recover
